"""Grid construction, state validation, load sampling."""

import numpy as np
import pytest

from paleomag.errors import ConfigError, ScenarioError
from paleomag.grid import (
    NCOMP,
    FieldState,
    Loads,
    make_grid,
    sample_loads,
)


class TestMakeGrid:
    def test_dim0(self, grid0):
        assert grid0.spatial_shape == ()
        assert grid0.cell_volume == 1.0
        assert grid0.total_volume == 1.0
        assert grid0.boundary_area == 1.0
        assert grid0.halo_cells == ()

    def test_dim1(self, grid1):
        assert grid1.spatial_shape == (16,)
        assert grid1.spacing == (1.0 / 16,)
        assert grid1.boundary_area == 2.0
        assert grid1.halo_cells == (18,)

    def test_dim2(self):
        g = make_grid(2, (2.0, 1.0), (8, 4))
        assert g.spacing == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert g.total_volume == pytest.approx(2.0)
        assert g.boundary_area == pytest.approx(6.0)
        assert g.halo_cells == (10, 6)

    def test_integrate_midpoint(self, grid2):
        assert grid2.integrate(grid2.scalar_field(1.0)) == pytest.approx(1.0)
        x, y = grid2.cell_centers()
        f = x[:, None] + 0.0 * y[None, :]
        assert grid2.integrate(f) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize(
        "args",
        [
            dict(dim=3, extents=(1, 1, 1), cells=(4, 4, 4)),
            dict(dim=2, extents=(1,), cells=(4, 4)),
            dict(dim=1, extents=(-1.0,), cells=(4,)),
            dict(dim=1, extents=(1.0,), cells=(0,)),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ConfigError):
            make_grid(**args)


class TestGridCachedProperties:
    def test_hash_and_equality_survive_cached_reads(self):
        g1 = make_grid(2, (1.0, 0.5), (8, 4))
        g2 = make_grid(2, (1.0, 0.5), (8, 4))
        before = hash(g1)
        assert g1.spacing == (0.125, 0.125)
        assert g1.cell_volume == 0.125 * 0.125
        assert hash(g1) == before == hash(g2)
        assert g1 == g2 and g2 == g1
        assert g1 != make_grid(2, (1.0, 0.5), (8, 8))


class TestFieldState:
    def test_zeros_shapes(self, grid2):
        s = FieldState.zeros(grid2)
        assert s.v.shape == (8, 8, NCOMP)
        assert s.Ee.shape == (8, 8, NCOMP, NCOMP)
        assert s.u.shape == grid2.halo_cells
        assert s.w.shape == (8, 8)
        s.validate(grid2)

    def test_copy_is_deep(self, grid0):
        s = FieldState.zeros(grid0)
        c = s.copy()
        c.m[...] = 1.0
        assert float(np.max(np.abs(s.m))) == 0.0

    def test_wrong_shape(self, grid2, grid1):
        s = FieldState.zeros(grid1)
        with pytest.raises(ConfigError):
            s.validate(grid2)

    def test_asymmetric_Ee(self, grid0):
        s = FieldState.zeros(grid0)
        s.Ee[0, 1] = 1e-3
        with pytest.raises(ConfigError, match="asymmetry"):
            s.validate(grid0)

    def test_traceful_Ep(self, grid0):
        s = FieldState.zeros(grid0)
        s.Ep[0, 0] = 1e-3
        s.Ep[1, 1] = 1e-3
        with pytest.raises(ConfigError, match="trace"):
            s.validate(grid0)

    def test_negative_w(self, grid0):
        s = FieldState.zeros(grid0)
        s.w[...] = -1.0
        with pytest.raises(ConfigError, match="negative"):
            s.validate(grid0)


class TestSampleLoads:
    def test_defaults(self):
        s = sample_loads(Loads(), t=1.0, dt=0.1)
        assert np.all(s.h_ext_k == 0.0)
        assert s.j_ext_k == 0.0
        assert s.grad_v_k is None and s.stress_dev_k is None and s.theta_k is None

    def test_field_rate(self):
        loads = Loads(h_ext=lambda t: np.array([t, 0.0]))
        s = sample_loads(loads, t=2.0, dt=0.5)
        assert s.h_ext_k[0] == pytest.approx(2.0)
        assert s.h_ext_prev[0] == pytest.approx(1.5)

    def test_negative_j_rejected(self):
        with pytest.raises(ScenarioError, match="positivity"):
            sample_loads(Loads(j_ext=lambda t: -1.0), t=1.0, dt=0.1)

    def test_negative_theta_rejected(self):
        with pytest.raises(ScenarioError):
            sample_loads(Loads(theta=lambda t: -0.5), t=1.0, dt=0.1)

    def test_bad_tensor_shape(self):
        with pytest.raises(ScenarioError):
            sample_loads(Loads(grad_v=lambda t: np.zeros(3)), t=1.0, dt=0.1)

    def test_invalid_dt(self):
        with pytest.raises(ScenarioError):
            sample_loads(Loads(), t=1.0, dt=0.0)
