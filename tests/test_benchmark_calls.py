"""The benchmark's in-process ops, called as the benchmark calls them, at its small grid
point, and the spectral ops also at the mid one (32, 4), where a pass triangularizes
normal tuples of benchmark size.

``benchmarks/`` is read, never written: its directory goes on ``sys.path`` only while
``workloads`` is imported. An API change that breaks one of its call forms (say, a
positional ``beta`` method) fails here instead of only as failed ops in a benchmark run.
"""

import importlib
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCHMARKS))
        return importlib.import_module("workloads")


def assert_ops_pass(ops):
    assert ops
    for op in ops:
        mismatches = op.check(op.run())
        assert not mismatches, f"{op.name}: " + "; ".join(map(str, mismatches))


@pytest.mark.parametrize("workload", ["OperatorPolys", "VectorStates", "JointSpectra"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_ops_pass_their_checks(workloads, workload, seed):
    grid, dim, d, m = workloads.GRID[0]
    assert (grid, dim, d, m) == ("small", 8, 2, 4)
    assert_ops_pass(getattr(workloads, workload).ops(seed, 0, grid, dim, d, m))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mid_spectral_ops_pass_their_checks(workloads, seed):
    grid, dim, d, m = workloads.GRID[1]
    assert (grid, dim, d) == ("mid", 32, 4)
    assert_ops_pass(workloads.JointSpectra.ops(seed, 0, grid, dim, d, m))
