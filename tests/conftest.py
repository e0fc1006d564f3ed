import pytest

from graphfactor import census as census_mod
from graphfactor.census import enumerate_graphs, run_census
from oracles import factor_naive


@pytest.fixture(scope="session")
def order6_records():
    return run_census(6)


@pytest.fixture(scope="session")
def naive_witnesses():
    """(class representative, factor_naive witnesses) for every class of
    order 1 to 5, in enumerate_graphs order."""
    return [(g, factor_naive(g)) for n in range(1, 6) for g in enumerate_graphs(n)]


@pytest.fixture
def pool_of_two(monkeypatch):
    """census and verify at --jobs 2 start a real pool of 2 workers on any
    input of two or more classes or runs of lines; the fixture lists the
    pool sizes asked for."""
    from concurrent.futures import ProcessPoolExecutor

    class CountedPool(ProcessPoolExecutor):
        sizes: list[int] = []

        def __init__(self, max_workers):
            CountedPool.sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(census_mod, "CENSUS_CLASSES_PER_WORKER", 1)
    monkeypatch.setattr(census_mod, "VERIFY_CHUNKS_PER_WORKER", 1)
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 2)
    return CountedPool.sizes
