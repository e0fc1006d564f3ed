import pytest

from graphfactor.census import enumerate_graphs, run_census
from graphfactor.search import factor_naive


@pytest.fixture(scope="session")
def order6_records():
    return run_census(6)


@pytest.fixture(scope="session")
def naive_witnesses():
    """(class representative, factor_naive witnesses) for every class of
    order 1 to 5, in enumerate_graphs order."""
    return [(g, factor_naive(g)) for n in range(1, 6) for g in enumerate_graphs(n)]
