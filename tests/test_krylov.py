"""Krylov solves of the implicit momentum and heat blocks.

The preconditioner is the sparse LU of a matrix probed from the
matrix-free operator; these tests hold the operator itself as the oracle.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from paleomag import stepper
from paleomag.grid import NCOMP, make_grid
from paleomag.scenarios import run_scenario

from test_stepper import _spatial_config

GRIDS = [
    make_grid(1, (1.0,), (1,)),
    make_grid(1, (1.0,), (2,)),
    make_grid(1, (2.0,), (7,)),
    make_grid(2, (1.0, 1.0), (1, 1)),
    make_grid(2, (1.0, 1.0), (2, 3)),
    make_grid(2, (1.0, 0.5), (5, 7)),
    make_grid(2, (1.0, 1.0), (32, 32)),
    make_grid(2, (3.0, 0.7), (12, 9)),
]


def _operators(grid, tau=0.005):
    """(apply_op, lu, field shape) of the momentum and the heat block."""
    rho_tau, nu1, K_cond, c_v = 1.3 / tau, 0.7, 1.1, 100.0
    return [
        (stepper._momentum_operator(grid, rho_tau, nu1),
         stepper._momentum_lu(grid, rho_tau, nu1), grid.spatial_shape + (NCOMP,)),
        (stepper._heat_operator(grid, tau, K_cond, c_v),
         stepper._heat_lu(grid, tau, K_cond, c_v), grid.spatial_shape),
    ]


class Counting:
    """An operator that counts its applications."""

    def __init__(self, apply_op):
        self.apply_op, self.calls = apply_op, 0

    def __call__(self, x):
        self.calls += 1
        return self.apply_op(x)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
class TestProbe:
    def test_probed_matrix_is_the_operator(self, grid, rng):
        ops = [
            (stepper._momentum_operator(grid, 260.0, 0.7), (NCOMP,)),
            (stepper._heat_operator(grid, 0.005, 1.1, 100.0), ()),
        ]
        for apply_op, comps in ops:
            A = stepper._probe_matrix(apply_op, grid.spatial_shape, comps)
            for _ in range(3):
                x = rng.standard_normal(A.shape[0])
                expect = apply_op(x)
                assert np.max(np.abs(A @ x - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_preconditioned_solve_matches_plain_bicgstab(self, grid, rng):
        for apply_op, lu, shape in _operators(grid):
            n = int(np.prod(shape))
            rhs = rng.standard_normal(shape)
            x0 = rng.standard_normal(shape)
            op = spla.LinearOperator((n, n), matvec=apply_op, dtype=np.float64)
            plain, info = spla.bicgstab(op, rhs.ravel(), x0=x0.ravel(), rtol=1e-12, atol=1e-14)
            assert info == 0
            counting = Counting(apply_op)
            x, failure = stepper._bicgstab(counting, rhs, x0, lu)
            assert failure == ""
            assert x.shape == shape
            assert np.max(np.abs(x.ravel() - plain)) <= 1e-11 * np.max(np.abs(plain))
            # the initial residual and one half-iteration
            assert counting.calls <= 3


class TestPreconditioner:
    def test_stale_factorization_costs_only_iterations(self, rng):
        grid = make_grid(2, (1.0, 1.0), (16, 16))
        for (apply_op, exact, shape), (_, stale, _) in zip(
            _operators(grid, tau=0.005), _operators(grid, tau=0.02)
        ):
            rhs = rng.standard_normal(shape)
            x0 = np.zeros(shape)
            want, failure = stepper._bicgstab(apply_op, rhs, x0, exact)
            assert failure == ""
            counting = Counting(apply_op)
            got, failure = stepper._bicgstab(counting, rhs, x0, stale)
            assert failure == ""
            assert counting.calls > 2
            res = np.max(np.abs(apply_op(got) - rhs.ravel()))
            assert res <= 1e-12 * np.linalg.norm(rhs)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_rhs_fails_at_once(self, bad):
        # 1e200 is finite, but the 2-norm bicgstab stops on overflows
        grid = make_grid(2, (1.0, 1.0), (32, 32))
        apply_op, lu, shape = _operators(grid)[0]
        rhs = np.ones(shape)
        rhs[3, 5, 1] = bad
        counting = Counting(apply_op)
        x, failure = stepper._bicgstab(counting, rhs, np.zeros(shape), lu)
        assert "non-finite" in failure
        assert counting.calls < 5

    def test_equal_grid_built_separately_hits_the_cache(self):
        built = make_grid(2, (1.0, 0.5), (5, 7))
        assert built.spacing == (0.2, 0.5 / 7) and built.cell_volume > 0.0
        again = make_grid(2, (1.0, 0.5), (5, 7))
        for lu_of, args in ((stepper._momentum_lu, (260.0, 0.7)),
                            (stepper._heat_lu, (0.005, 1.1, 100.0))):
            lu = lu_of(built, *args)
            before = lu_of.cache_info()
            assert lu_of(again, *args) is lu
            after = lu_of.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_cache_stays_bounded_when_dt_is_halved(self, monkeypatch):
        # five failed solves: the step is tried at six dt, then dt grows back
        real = spla.bicgstab
        calls = []

        def fail_five(A, b, *args, **kwargs):
            calls.append(1)
            if len(calls) <= 5:
                return np.zeros_like(b), 1
            return real(A, b, *args, **kwargs)

        monkeypatch.setattr(spla, "bicgstab", fail_five)
        stepper._momentum_lu.cache_clear()
        cfg, state = _spatial_config(duration=0.005)
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections == 5
        assert traj.final_state.t == pytest.approx(0.005)
        info = stepper._momentum_lu.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize == 4
