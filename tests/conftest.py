"""Test-session set-up shared by every test module.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy is first
imported, so it is set here, before any test module imports numpy.  One
thread is what CI runs with; on a 2-core machine the threaded default is
slower for the small products these tests make.  A value already set in
the environment wins.

Every recipe's full report at seed 7 is run at most once per session and
shared by the test modules through the ``recipe_report`` fixture.
"""

import copy
import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

RECIPE_SEED = 7


@pytest.fixture(scope="session")
def recipe_report():
    """``recipe_report(name)``: the recipe's report at seed 7, run on first use.

    Each call returns a deep copy, so no test can change what another
    test reads.
    """
    from cpdlab.recipes import run_recipe

    cache = {}

    def report(name):
        if name not in cache:
            cache[name] = run_recipe(name, RECIPE_SEED)
        return copy.deepcopy(cache[name])

    return report
