import os

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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each pool census and verify run, counted as the
    processes that do work: the forking process plus its forks.  A spy on
    os.fork, which calls the real fork, starts a pool at a fork made while
    no earlier fork is left unreaped; a spy on os.waitpid sees the reaps."""
    sizes, unreaped = [], set()
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            if not unreaped:
                sizes.append(1)
            sizes[-1] += 1
            unreaped.add(pid)
        return pid

    def waitpid(pid, options):
        done = real_waitpid(pid, options)
        unreaped.discard(done[0])
        return done

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return sizes


@pytest.fixture
def pool_of_two(monkeypatch, pool_sizes):
    """census and verify at --jobs 2 run 2 workers on any input of two or
    more runs of records; the fixture lists the pool sizes."""
    monkeypatch.setattr(census_mod, "RUNS_PER_WORKER", 1)
    monkeypatch.setattr(census_mod.os, "cpu_count", lambda: 2)
    return pool_sizes
