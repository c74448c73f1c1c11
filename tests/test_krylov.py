"""Exact LU solves of the implicit momentum and heat blocks.

Each block is solved with the sparse LU of a matrix probed from the
matrix-free operator and cached per tau.  These tests hold the operator
itself, and SciPy's unpreconditioned bicgstab on it, as the oracles.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from paleomag import scenarios, stepper
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
    """A factorization that counts its solves."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


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
        # the LU solve is the whole solve; plain bicgstab is the oracle
        for apply_op, lu, shape in _operators(grid):
            n = int(np.prod(shape))
            rhs = rng.standard_normal(shape)
            x0 = rng.standard_normal(shape)
            op = spla.LinearOperator((n, n), matvec=apply_op, dtype=np.float64)
            plain, info = spla.bicgstab(op, rhs.ravel(), x0=x0.ravel(), rtol=1e-12, atol=1e-14)
            assert info == 0
            x, failure = stepper._lu_solve(lu, rhs)
            assert failure == ""
            assert x.shape == shape
            assert np.max(np.abs(x.ravel() - plain)) <= 1e-11 * np.max(np.abs(plain))
            assert np.max(np.abs(apply_op(x) - rhs.ravel())) <= 1e-12 * np.linalg.norm(rhs)


class TestPreconditioner:
    """The cached LU factorizations, keyed by everything their operator reads."""

    def test_each_dt_solves_with_its_own_factorization(self, monkeypatch):
        # one forced failure: the step is retried at half dt, then dt regrows
        # by 1.2 per step; every solve must be exact at its own step's tau
        real_solve, real_step = stepper._lu_solve, scenarios.step
        taus, solves = [], []

        def tracked_step(state, loads_k, dt, grid, params, demag):
            taus.append(dt)
            return real_step(state, loads_k, dt, grid, params, demag)

        def fail_once(lu, rhs):
            if not solves:
                solves.append(None)
                return rhs, "stub failure"
            x, failure = real_solve(lu, rhs)
            solves.append((taus[-1], rhs, x))
            return x, failure

        monkeypatch.setattr(scenarios, "step", tracked_step)
        monkeypatch.setattr(stepper, "_lu_solve", fail_once)
        cfg, state = _spatial_config(duration=0.01)
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections == 1
        assert traj.final_state.t == pytest.approx(0.01)
        # halved, then regrown twice
        assert taus[:4] == pytest.approx([0.005, 0.0025, 0.003, 0.0036])
        grid, p = cfg.build_grid(), cfg.material
        n_cells = int(np.prod(cfg.cells))
        solved = set()
        for tau, rhs, x in solves[1:]:
            if rhs.size == NCOMP * n_cells:
                apply_op = stepper._momentum_operator(grid, p.rho / tau, p.nu1)
            else:
                apply_op = stepper._heat_operator(grid, tau, p.K_cond, p.c_v)
            res = np.max(np.abs(apply_op(x) - rhs.ravel()))
            assert res <= 1e-12 * np.linalg.norm(rhs), (tau, rhs.size)
            solved.add((tau, rhs.size))
        # both blocks were solved at every dt tried after the failure
        assert len(solved) == 2 * len(set(taus[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_rhs_fails_at_once(self, bad):
        # 1e200 is finite, but its 2-norm overflows
        grid = make_grid(2, (1.0, 1.0), (32, 32))
        apply_op, lu, shape = _operators(grid)[0]
        rhs = np.ones(shape)
        rhs[3, 5, 1] = bad
        counting = Counting(lu)
        x, failure = stepper._lu_solve(counting, rhs)
        assert "non-finite" in failure
        assert counting.calls == 0

    def test_non_finite_solution_fails(self):
        class ZeroPivot:
            def solve(self, b):
                return b / 0.0

        with np.errstate(divide="ignore"):
            x, failure = stepper._lu_solve(ZeroPivot(), np.ones((4, 3, NCOMP)))
        assert failure == "non-finite solution"
        assert x.shape == (4, 3, NCOMP)

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
        real = stepper._lu_solve
        calls = []

        def fail_five(lu, rhs):
            calls.append(1)
            if len(calls) <= 5:
                return rhs, "stub failure"
            return real(lu, rhs)

        monkeypatch.setattr(stepper, "_lu_solve", fail_five)
        stepper._momentum_lu.cache_clear()
        cfg, state = _spatial_config(duration=0.005)
        traj = run_scenario(cfg, initial_state=state)
        assert traj.n_rejections == 5
        assert traj.final_state.t == pytest.approx(0.005)
        info = stepper._momentum_lu.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize == 4
