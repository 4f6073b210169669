"""The package surface the benchmark in perfbench/ builds on.

perfbench/workloads.py calls fodelab's public API to build and warm up its
workloads, and perfbench/run.py reads a few names for its trace counts.  A
change that breaks either fails here rather than only when the benchmark
runs.
"""
import importlib
import sys
from pathlib import Path

import pytest

from fodelab import fraccalc, ldgsolver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("uniform-march", "study", "graded-post")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_builds_and_warms_up(workloads, name):
    workload = workloads.build(name, 3)
    assert workload.name == name and workload.ops
    workload.warm_up()


def test_traced_names_exist():
    assert callable(fraccalc.history_contribution)
    assert callable(fraccalc.far_history_sum)
    assert isinstance(fraccalc.MULTIPOLE_TERMS, int)
    assert callable(ldgsolver.newton_solve)
