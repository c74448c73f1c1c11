"""Fast-transform solves of the implicit momentum and heat blocks.

Under the adjoint wall rule both block operators are diagonalized by
real trigonometric transforms: heat by the DCT-II, momentum by the DST-II
along each velocity component's own axis and the DCT-II across it, with
one closed-form 2x2 solve per wavenumber pair.  The oracles are the block
operators written here from ``kin.grad_vector``, ``kin.div_tensor`` and
``kin.laplacian``, and SciPy's unpreconditioned bicgstab on them.
"""

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg as spla

from paleomag import kinematics as kin
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


def momentum_operator(x, grid, rho_tau, nu1):
    """rho v / tau - div(nu1 E(v)), E(v) = sym grad v under free-slip ghosts."""
    Ev = kin.sym(kin.grad_vector(x, grid, kind="velocity"))
    return rho_tau * x - kin.div_tensor(nu1 * Ev, grid)


def heat_operator(x, grid, tau, K_cond, c_v):
    """w / tau - K Delta(w / c_v), the linear thermal law theta = w / c_v."""
    return x / tau - K_cond * kin.laplacian(x / c_v, grid)


def _blocks(grid, tau=0.005):
    """(solve, oracle, field shape) of the momentum and the heat block."""
    rho_tau, nu1, K_cond, c_v = 1.3 / tau, 0.7, 1.1, 100.0
    return [
        (lambda b: stepper._momentum_inverse(b, grid, rho_tau, nu1),
         lambda x: momentum_operator(x, grid, rho_tau, nu1), grid.spatial_shape + (NCOMP,)),
        (lambda b: stepper._heat_inverse(b, grid, tau, K_cond / c_v),
         lambda x: heat_operator(x, grid, tau, K_cond, c_v), grid.spatial_shape),
    ]


def _max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
class TestProbe:
    def test_probed_matrix_is_the_operator(self, grid):
        # the solve applied to every unit vector, then the oracle, gives the
        # unit vector back: the solve is the exact inverse, column by column
        for solve, oracle, shape in _blocks(grid):
            n = int(np.prod(shape))
            for k in range(n):
                e = np.zeros(n)
                e[k] = 1.0
                e = e.reshape(shape)
                assert np.max(np.abs(oracle(solve(e)) - e)) <= 1e-13, k

    def test_preconditioned_solve_matches_plain_bicgstab(self, grid, rng):
        # the transform solve is the whole solve; plain bicgstab on the
        # oracle operator is the reference
        for solve, oracle, shape in _blocks(grid):
            n = int(np.prod(shape))
            rhs = rng.standard_normal(shape)
            x0 = rng.standard_normal(shape)
            op = spla.LinearOperator(
                (n, n), matvec=lambda y: oracle(y.reshape(shape)).ravel(), dtype=np.float64
            )
            plain, info = spla.bicgstab(op, rhs.ravel(), x0=x0.ravel(), rtol=1e-12, atol=1e-14)
            assert info == 0
            x, failure = stepper._checked_solve(solve, rhs)
            assert failure == ""
            assert x.shape == shape
            assert _max_rel(x.ravel(), plain) <= 1e-11
            assert _max_rel(oracle(x), rhs) <= 1e-13


def _per_component_inverse(rhs, grid, rho_tau, nu1):
    """The momentum transform solve with one DST-II/DCT-II pass per component.

    v_i is transformed by the DST-II along its own axis i and the DCT-II
    across it, and back, each component on its own.
    """
    pair = {False: (scipy.fft.dct, scipy.fft.idct), True: (scipy.fft.dst, scipy.fft.idst)}

    def trig(x, sine, inverse=False):
        for axis, is_sine in enumerate(sine):
            x = pair[is_sine][inverse](x, type=2, axis=axis, norm="ortho")
        return x

    s = np.meshgrid(*(np.sin(np.pi * np.arange(n + 1) / n) / h
                      for n, h in zip(grid.cells, grid.spacing)), indexing="ij", sparse=True)
    sines = [tuple(a == i for a in range(grid.dim)) for i in range(NCOMP)]
    slots = [tuple(slice(1, None) if odd else slice(-1) for odd in sine) for sine in sines]
    half_s2 = 0.5 * nu1 * sum(sa * sa for sa in s)
    c = rho_tau + half_s2
    coef = np.zeros(tuple(n + 1 for n in grid.cells) + (NCOMP,))
    for i in range(NCOMP):
        coef[slots[i] + (i,)] = trig(rhs[..., i], sines[i])
    g = 0.5 * nu1 * sum(sa * coef[..., a] for a, sa in enumerate(s)) / (c + half_s2)
    for a, sa in enumerate(s):
        coef[..., a] -= sa * g
    v = np.empty_like(rhs)
    for i in range(NCOMP):
        c_i = np.ascontiguousarray(c[slots[i]])
        v[..., i] = trig(coef[slots[i] + (i,)] / c_i, sines[i], inverse=True)
    return v


class TestStackedTransform:
    """Both velocity components through one DCT-II per axis, each way."""

    @pytest.mark.parametrize("cells", [(32, 32), (7, 5), (1, 6), (5, 1), (33, 17),
                                       (16,), (7,), (1,)], ids=lambda c: "x".join(map(str, c)))
    def test_matches_the_per_component_transforms_bit_for_bit(self, rng, cells):
        # the DST-II is the reversed DCT-II of the sign-alternated input, and
        # the inverse likewise, so every bit of v, signs of zero included, is
        # that of the per-component form (an all-zero rhs is left out: the
        # sign flip before a transform, not after, may turn a +0 into -0)
        grid = make_grid(len(cells), (1.0, 0.8)[:len(cells)], cells)
        for rho_tau, nu1 in ((260.0, 0.7), (1.3, 2.0)):
            for rhs in (rng.standard_normal(cells + (NCOMP,)),
                        rng.integers(-2, 3, cells + (NCOMP,)).astype(float)):
                got = stepper._momentum_inverse(rhs, grid, rho_tau, nu1)
                want = _per_component_inverse(rhs, grid, rho_tau, nu1)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_each_solve_makes_one_transform_per_axis_each_way(self, rng, monkeypatch):
        calls = []
        for name in ("dct", "idct", "dst", "idst"):
            real = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name,
                                lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
        grid = make_grid(2, (1.0, 0.8), (7, 5))
        stepper._momentum_inverse(rng.standard_normal((7, 5, NCOMP)), grid, 260.0, 0.7)
        assert calls == ["dct", "dct", "idct", "idct"]


class Counting:
    """A function that counts its calls."""

    def __init__(self, solve):
        self.solve, self.calls = solve, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.solve(*args, **kwargs)


class TestPreconditioner:
    """The checked solve: one transform solve per block, each at its step's tau."""

    def test_each_dt_solves_at_its_own_tau(self, monkeypatch):
        # one forced failure: the step is retried at half dt, then dt regrows
        # by 1.2 per step; every solve must be exact at its own step's tau
        real_solve, real_step = stepper._checked_solve, scenarios.step
        taus, solves = [], []

        def tracked_step(state, loads_k, dt, grid, params, demag):
            taus.append(dt)
            return real_step(state, loads_k, dt, grid, params, demag)

        def fail_once(solve, rhs, *args):
            if not solves:
                solves.append(None)
                return rhs, "stub failure"
            x, failure = real_solve(solve, rhs, *args)
            solves.append((taus[-1], rhs, x))
            return x, failure

        monkeypatch.setattr(scenarios, "step", tracked_step)
        monkeypatch.setattr(stepper, "_checked_solve", fail_once)
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
                ax = momentum_operator(x, grid, p.rho / tau, p.nu1)
            else:
                ax = heat_operator(x, grid, tau, p.K_cond, p.c_v)
            assert _max_rel(ax, rhs) <= 1e-13, (tau, rhs.size)
            solved.add((tau, rhs.size))
        # both blocks were solved at every dt tried after the failure
        assert len(solved) == 2 * len(set(taus[1:]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_rhs_fails_at_once(self, bad, monkeypatch):
        # 1e200 is finite, but its 2-norm overflows; no transform runs
        grid = make_grid(2, (1.0, 1.0), (32, 32))
        transforms = Counting(stepper._trig)
        monkeypatch.setattr(stepper, "_trig", transforms)
        for block_solve, args, shape in (
            (stepper._momentum_inverse, (grid, 260.0, 0.7), grid.spatial_shape + (NCOMP,)),
            (stepper._heat_inverse, (grid, 0.005, 0.011), grid.spatial_shape),
        ):
            rhs = np.ones(shape)
            rhs[(3, 5) + (1,) * (len(shape) - 2)] = bad
            counting = Counting(block_solve)
            x, failure = stepper._checked_solve(counting, rhs, *args)
            assert failure == "non-finite norm of the right-hand side"
            assert counting.calls == 0
        assert transforms.calls == 0

    def test_non_finite_solution_fails(self):
        def divide_by_zero(b):
            return b / 0.0

        with np.errstate(divide="ignore"):
            x, failure = stepper._checked_solve(divide_by_zero, np.ones((4, 3, NCOMP)))
        assert failure == "non-finite solution"
        assert x.shape == (4, 3, NCOMP)
