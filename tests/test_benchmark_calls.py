"""The benchmark's in-process ops, called as the benchmark calls them, at its small grid
point, and the spectral ops also at the mid one (32, 4), where a pass triangularizes
normal tuples of benchmark size. At mid and corner, the quasinormality flags of the
benchmark's own tuples are checked alone: its oracle's truth on the pi-diagonal ones,
the triple loop's flags on the non-normal ones.

``benchmarks/`` is read, never written: its directory goes on ``sys.path`` only while
``workloads`` is imported. An API change that breaks one of its call forms (say, a
positional ``beta`` method) fails here instead of only as failed ops in a benchmark run.
"""

import importlib
import pathlib

import pytest

from opertuple.linalg import DEFAULT_TOL
from opertuple.tuples import QuasinormalFlags, make_tuple, quasinormal_class

from quasinormal_oracle import quasinormal_reference

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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("point", [1, 2])
def test_quasinormal_flags_on_the_benchmark_tuples(workloads, seed, point):
    # classify at mid and corner: the pi-diagonal tuples are normal, whose flags the benchmark
    # oracle holds all True; the non-normal ones get the triple loop's flags
    _, dim, d, _ = workloads.GRID[point]
    families = (workloads.build.pi_diagonal, workloads.build.non_normal)
    pi, nn = (make_tuple(family(seed, dim, d).matrices) for family in families)
    assert quasinormal_class(pi) == QuasinormalFlags(True, True, True)
    assert quasinormal_class(nn) == quasinormal_reference(nn, DEFAULT_TOL)
