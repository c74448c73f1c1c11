"""Material laws: free energy, dissipation potential/resolvent, thermal law."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from paleomag import constitutive as con
from paleomag.errors import ConfigError, ConstitutiveError, ThermodynamicError

from conftest import material


class TestMaterialParams:
    def test_roundtrip(self):
        p = material(kappa=0.1)
        assert con.MaterialParams.from_dict(p.to_dict()) == p

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            con.MaterialParams.from_dict({"bogus": 1.0})

    @pytest.mark.parametrize(
        "bad",
        [dict(rho=0.0), dict(G_E=-1.0), dict(M_solid=1.0, M_magma=2.0),
         dict(r_exp=2.0), dict(r_exp=4.5, p=4.0), dict(r_exp=3.5), dict(p=3.0)],
    )
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            material(**bad).validate()

    def test_rate_exponent_is_checked_on_construction(self):
        # zeta is written for r_exp = 3 only; no unchecked params reach step()
        with pytest.raises(ConfigError, match="r_exp"):
            con.MaterialParams(r_exp=3.5)


class TestFreeEnergy:
    def test_phi_mech_value(self):
        p = material(K_E=2.0, G_E=3.0, b0=5.0)
        Ee = np.array([[0.1, 0.02], [0.02, -0.04]])
        m = np.array([0.3, 0.4])
        tr = 0.06
        dv = Ee - 0.5 * tr * np.eye(2)
        expect = 0.5 * 2.0 * tr**2 + 3.0 * np.sum(dv * dv) + 0.5 * 5.0 * 0.25**2
        assert con.phi_mech(Ee, m, p) == pytest.approx(expect, rel=1e-14)
        assert con.phi_mech(Ee, m, p) >= 0.0

    def test_stress_is_phi_gradient(self, rng):
        p = material(K_E=1.7, G_E=0.8)
        Ee = np.array([[0.05, 0.01], [0.01, -0.02]])
        m = np.zeros(2)
        S = con.stress_elastic(Ee, p)
        h = 1e-6
        for i in range(2):
            for j in range(2):
                dE = np.zeros((2, 2))
                dE[i, j] += 0.5 * h
                dE[j, i] += 0.5 * h
                fd = (con.phi_mech(Ee + dE, m, p) - con.phi_mech(Ee - dE, m, p)) / (2 * h)
                assert S[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_phi_m_prime_is_gradient(self):
        p = material(b0=2.5)
        m = np.array([0.3, -0.2])
        g = con.phi_m_prime(m, p)
        h = 1e-6
        for i in range(2):
            dm = np.zeros(2)
            dm[i] = h
            fd = (con.phi_mech(np.zeros((2, 2)), m + dm, p)
                  - con.phi_mech(np.zeros((2, 2)), m - dm, p)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=1e-7, abs=1e-10)

    def test_omega_family(self):
        p = material(a0=2.0, theta_c=1.0)
        m = np.array([0.5, 0.0])
        w = con.omega(m, 1.4, p)
        assert w == pytest.approx(2.0 * 0.4 * 0.25, rel=1e-14)
        # derivative in m by finite differences
        h = 1e-6
        dm = np.array([h, 0.0])
        fd = (con.omega(m + dm, 1.4, p) - con.omega(m - dm, 1.4, p)) / (2 * h)
        assert con.omega_m(m, 1.4, p)[0] == pytest.approx(fd, rel=1e-6)
        # theta-derivative hat function
        fd_t = (con.omega(m, 1.4 + h, p) - con.omega(m, 1.4 - h, p)) / (2 * h)
        assert con.omega_hat(m, p) == pytest.approx(fd_t, rel=1e-6)
        # and its derivative in m
        fd_hat = (con.omega_hat(m + dm, p) - con.omega_hat(m - dm, p)) / (2 * h)
        assert con.omega_hat_m(m, p)[0] == pytest.approx(fd_hat, rel=1e-6)

    def test_m_sat(self):
        p = material(a0=2.0, b0=0.5, theta_c=1.0)
        assert con.m_sat(0.5, p) == pytest.approx(np.sqrt(2.0 * 0.5 / 0.5))
        assert con.m_sat(1.5, p) == 0.0

    def test_stationarity_at_m_sat(self):
        # the radial energy phi + omega is minimized at m_sat to 1e-8
        p = material()
        theta = 0.4
        target = float(con.m_sat(theta, p))

        def radial(s):
            m = np.array([s, 0.0])
            return float(con.phi_mech(np.zeros((2, 2)), m, p) + con.omega(m, theta, p))

        res = minimize_scalar(radial, bounds=(0.0, 2.0), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(res.x - target) < 1e-8

    def test_equilibrium_m(self):
        p = material()
        # zero field at theta < theta_c recovers m_sat
        assert con.equilibrium_m(0.5, 0.0, p) == pytest.approx(float(con.m_sat(0.5, p)), abs=1e-12)
        # nonzero field: the root satisfies the stationarity equation
        m = con.equilibrium_m(1.3, 0.01, p)
        assert 2.0 * m**3 + 2.0 * (1.3 - 1.0) * m == pytest.approx(0.01, rel=1e-10)

    def test_h_anisotropy_sign(self):
        p = material()
        m = np.array([0.2, 0.0])
        h = con.h_anisotropy(m, 0.5, p)
        # below theta_c the omega term is restoring-outward: h parallel to m
        expect = -(2.0 * 0.04 * 0.2 + 2.0 * (0.5 - 1.0) * 0.2)
        assert h[0] == pytest.approx(expect, rel=1e-14)


class TestTemperatureLaws:
    def test_h_c_limits_and_midpoint(self):
        p = material(theta_b=0.6, h_c_high=0.5, h_c_low=0.1, hc_width=0.02)
        assert con.h_c(0.0, p) == pytest.approx(0.5, abs=1e-12)
        assert con.h_c(2.0, p) == pytest.approx(0.1, abs=1e-12)
        assert con.h_c(0.6, p) == pytest.approx(0.3, rel=1e-12)
        theta = np.linspace(0.0, 2.0, 101)
        assert np.all(np.diff(con.h_c(theta, p)) <= 1e-15)

    def test_maxwell_viscosity(self):
        p = material()
        assert con.maxwell_viscosity(0.5, p) == pytest.approx(1e4, rel=1e-10)
        assert con.maxwell_viscosity(3.0, p) == pytest.approx(1e-2, rel=1e-10)
        mid = con.maxwell_viscosity(p.theta_melt, p)
        assert mid == pytest.approx(np.sqrt(1e4 * 1e-2), rel=1e-10)

    def test_buoyancy(self):
        p = material(buoyancy_coeff=0.2, buoyancy_theta_ref=1.0)
        assert con.buoyancy_b(1.5, p) == pytest.approx(0.1)


def _resolvent_oracle(p, hc, H):
    """Golden-section minimizer of zeta(s) - H s, independent of the solver."""
    if H <= hc:
        return 0.0
    obj = lambda s: float(con.zeta(hc, s, p)) - H * s
    res = minimize_scalar(obj, bounds=(0.0, 1e4), method="bounded",
                          options={"xatol": 1e-13})
    return float(res.x)


class TestZeta:
    def test_zeta_value(self):
        p = material(tau_c=0.5, eps_reg=0.1, h_c_high=0.2, theta_b=2.0)
        s = 0.7
        expect = 0.2 * s + 0.1 * s**3 + 0.5 * s**2
        assert con.zeta(con.h_c(0.5, p), s, p) == pytest.approx(expect, rel=1e-14)

    def test_zeta_diss_sticking(self):
        p = material()
        assert con.zeta_diss(con.h_c(0.5, p), np.zeros(2), p) == 0.0

    def test_resolvent_sticking_below_threshold(self):
        p = material(h_c_high=0.3, theta_b=2.0)
        r = con.zeta_resolvent(con.h_c(0.5, p), np.array([0.2, 0.1]), p)
        assert np.all(r == 0.0)

    @pytest.mark.parametrize("over", [
        dict(tau_c=0.05, eps_reg=1e-6),                      # quadratic-dominated
        dict(tau_c=1e-4, eps_reg=1.0),                       # power-dominated
        dict(tau_c=0.0, eps_reg=1e-3),                       # pure power
        dict(tau_c=0.05, eps_reg=0.0),                       # pure quadratic
    ])
    def test_resolvent_matches_oracle(self, over):
        p = material(h_c_high=0.2, theta_b=2.0, **over)
        hc = float(con.h_c(0.5, p))
        for H in (0.21, 0.4, 1.5):
            h_eff = np.array([H * 0.6, H * 0.8])
            r = con.zeta_resolvent(hc, h_eff, p)
            s = float(np.linalg.norm(r))
            s_star = _resolvent_oracle(p, hc, H)
            assert s == pytest.approx(s_star, rel=1e-6, abs=1e-9)
            # direction parallel to h_eff
            np.testing.assert_allclose(r / max(s, 1e-30), h_eff / H, atol=1e-12)

    def test_resolvent_ill_posed(self):
        p = material(tau_c=0.0, eps_reg=0.0, h_c_high=0.2, theta_b=2.0)
        with pytest.raises(ConstitutiveError):
            con.zeta_resolvent(con.h_c(0.5, p), np.array([0.5, 0.0]), p)

    def test_resolvent_slow_rate_does_not_cancel(self):
        # 3 eps ex << tau_c^2: the rate is ex / (2 tau_c), not 0
        p = material(tau_c=1e10, eps_reg=1e-6, h_c_high=0.0)
        r = con.zeta_resolvent(con.h_c(0.5, p), np.array([0.75, 1.0]), p)
        assert float(np.linalg.norm(r)) == pytest.approx(6.25e-11, rel=1e-12)

    @pytest.mark.parametrize("ex", [1e-6, 1e-8])
    def test_resolvent_small_excess_solves_branch(self, ex):
        # above theta_b h_c underflows to 0, so the excess field is |h| = ex
        p = material()
        hc = con.h_c(2.0, p)
        assert float(hc) < 1e-100
        s = float(np.linalg.norm(con.zeta_resolvent(hc, np.array([ex, 0.0]), p)))
        lhs = 3.0 * p.eps_reg * s * s + 2.0 * p.tau_c * s
        assert abs(lhs - ex) <= 1e-14 * ex

    def test_diss_consistent_with_prime(self):
        p = material()
        r = np.array([0.3, -0.4])
        s = 0.5
        hc = con.h_c(0.7, p)
        assert con.zeta_diss(hc, r, p) == pytest.approx(
            float(con.zeta_prime(hc, s, p)) * s, rel=1e-14
        )



def _central_jacobian(f, x, h=1e-6):
    """Columns (f(x + h e_j) - f(x - h e_j)) / 2h of the Jacobian of f at x."""
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


class TestJacobians:
    @pytest.mark.parametrize("over, H", [
        (dict(tau_c=0.05, eps_reg=1e-3), 0.7),                            # quadratic-dominated
        (dict(tau_c=1e-4, eps_reg=1.0), 0.7),                             # power-dominated
    ])
    def test_resolvent_jacobian_matches_central_differences(self, over, H):
        p = material(h_c_high=0.2, theta_b=2.0, **over)
        h_eff = np.array([0.6 * H, -0.8 * H])
        hc = con.h_c(0.5, p)
        r = con.zeta_resolvent(hc, h_eff, p)
        s = float(np.linalg.norm(r))
        assert s > 0.0
        Dr = con.zeta_resolvent_jacobian(h_eff, r, p)
        fd = _central_jacobian(lambda h: con.zeta_resolvent(hc, h, p), h_eff)
        np.testing.assert_allclose(Dr, fd, rtol=1e-6, atol=1e-9 * np.max(np.abs(fd)))
        # radial: symmetric, with the tangential eigenvalue s/H
        np.testing.assert_allclose(Dr, Dr.T, atol=1e-15)
        tangent = np.array([0.8, 0.6])
        assert tangent @ Dr @ tangent == pytest.approx(s / H, rel=1e-12)

    def test_resolvent_jacobian_vanishes_at_sticking(self):
        p = material(h_c_high=0.3, theta_b=2.0)
        h_eff = np.array([[0.2, 0.1], [0.0, 0.0]])
        r = con.zeta_resolvent(con.h_c(0.5, p), h_eff, p)
        assert np.all(r == 0.0)
        assert np.all(con.zeta_resolvent_jacobian(h_eff, r, p) == 0.0)

    @pytest.mark.parametrize("theta", [0.4, 1.3])
    def test_h_anisotropy_jacobian_matches_central_differences(self, theta):
        p = material(a0=0.8, b0=1.3, mu0=1.7)
        m = np.array([0.3, -0.5])
        Dh = con.h_anisotropy_jacobian(m, theta, p)
        fd = _central_jacobian(lambda x: con.h_anisotropy(x, theta, p), m)
        np.testing.assert_allclose(Dh, fd, rtol=1e-8, atol=1e-10)
        # a Hessian of the free energy: symmetric
        np.testing.assert_allclose(Dh, Dh.T, atol=1e-15)

    def test_jacobians_broadcast_over_cells(self, rng):
        p = material(h_c_high=0.2, theta_b=2.0)
        m = rng.standard_normal((3, 4, 2))
        theta = rng.uniform(0.3, 1.5, (3, 4))
        Dh = con.h_anisotropy_jacobian(m, theta, p)
        h_eff = rng.standard_normal((3, 4, 2))
        r = con.zeta_resolvent(con.h_c(0.5, p), h_eff, p)
        Dr = con.zeta_resolvent_jacobian(h_eff, r, p)
        for i, j in np.ndindex(3, 4):
            np.testing.assert_array_equal(
                Dh[i, j], con.h_anisotropy_jacobian(m[i, j], theta[i, j], p))
            np.testing.assert_array_equal(
                Dr[i, j], con.zeta_resolvent_jacobian(h_eff[i, j], r[i, j], p))


def _broadcast_resolvent_jacobian(h_eff, r, p):
    """Dr as a broadcast sum over the 2x2 axes, the matrix form the planes rebuild."""
    H = np.sqrt(h_eff[..., 0] * h_eff[..., 0] + h_eff[..., 1] * h_eff[..., 1])
    s = np.sqrt(r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1])
    moving = s > 0.0
    zpp = 6.0 * p.eps_reg * np.where(moving, s, 1.0) + 2.0 * p.tau_c
    ds = np.where(moving, 1.0 / np.maximum(zpp, 1e-300), 0.0)
    H_on = np.maximum(H, 1e-300)
    ratio = np.where(moving, s / H_on, 0.0)
    unit = h_eff / H_on[..., None]
    proj = unit[..., :, None] * unit[..., None, :]
    return (ds - ratio)[..., None, None] * proj + ratio[..., None, None] * np.eye(2)


def _broadcast_anisotropy_jacobian(m, theta, p):
    """Dh as a broadcast sum over the 2x2 axes, the matrix form the planes rebuild."""
    q = m[..., 0] * m[..., 0] + m[..., 1] * m[..., 1]
    iso = 2.0 * p.b0 * q + 2.0 * p.a0 * (np.asarray(theta) - p.theta_c)
    hess = iso[..., None, None] * np.eye(2) + 4.0 * p.b0 * (m[..., :, None] * m[..., None, :])
    return -hess / p.mu0


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


class TestJacobianPlanes:
    @staticmethod
    def _fields(rng, shape):
        # sticking cells (|h_eff| <= h_c gives r = 0), h_eff = 0 and m = 0
        # with both signs of zero, theta on both sides of theta_c
        h_eff = rng.standard_normal(shape + (2,)) * rng.choice([0.02, 1.0], shape)[..., None]
        m = rng.standard_normal(shape + (2,))
        flat_h, flat_m = h_eff.reshape(-1, 2), m.reshape(-1, 2)
        zeros = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        flat_h[:4], flat_m[4:8] = zeros, zeros
        flat_h[8:12, 0], flat_m[12:16, 1] = zeros[:, 0], zeros[:, 1]
        theta = rng.uniform(0.3, 1.5, shape)
        return h_eff, m, theta

    @pytest.mark.parametrize("shape", [(32, 32), (7, 5), (16,)])
    def test_planes_rebuild_the_matrix_forms_bit_for_bit(self, rng, shape):
        p = material(h_c_high=0.2, theta_b=2.0, a0=0.8, b0=1.3, mu0=1.7, eps_reg=1e-3)
        h_eff, m, theta = self._fields(rng, shape)
        r = con.zeta_resolvent(con.h_c(0.5, p), h_eff, p)
        sticking = (r[..., 0] == 0.0) & (r[..., 1] == 0.0)
        assert sticking.any() and not sticking.all()
        assert np.signbit(r[sticking]).any()
        Dr = con.zeta_resolvent_jacobian(h_eff, r, p)
        Dh = con.h_anisotropy_jacobian(m, theta, p)
        assert np.array_equal(_bits(Dr), _bits(_broadcast_resolvent_jacobian(h_eff, r, p)))
        assert np.array_equal(_bits(Dh), _bits(_broadcast_anisotropy_jacobian(m, theta, p)))
        for matrix, planes in ((Dr, con._zeta_resolvent_jacobian_planes(h_eff, r, p)),
                               (Dh, con._h_anisotropy_jacobian_planes(m, theta, p))):
            for (i, j), plane in zip(((0, 0), (0, 1), (1, 1)), planes):
                assert np.array_equal(_bits(matrix[..., i, j]), _bits(plane))
            assert np.array_equal(_bits(matrix[..., 1, 0]), _bits(planes[1]))

    def test_planes_at_a_material_point(self, rng):
        p = material(h_c_high=0.2, theta_b=2.0)
        for h_eff, m in (([0.6, -0.3], [0.3, 0.5]), ([0.1, 0.0], [-0.0, 0.4]),
                         ([0.0, -0.0], [0.0, 0.0])):
            h_eff, m = np.array(h_eff), np.array(m)
            r = con.zeta_resolvent(con.h_c(0.5, p), h_eff, p)
            assert np.array_equal(_bits(con.zeta_resolvent_jacobian(h_eff, r, p)),
                                  _bits(_broadcast_resolvent_jacobian(h_eff, r, p)))
            assert np.array_equal(_bits(con.h_anisotropy_jacobian(m, 0.7, p)),
                                  _bits(_broadcast_anisotropy_jacobian(m, 0.7, p)))


class TestThermalLaw:
    def test_enthalpy_roundtrip(self):
        law = con.thermal_law_for(material(c_v=100.0))
        theta = np.array([0.3, 1.0, 2.5])
        np.testing.assert_allclose(law.theta_of_w(law.w_of_theta(theta)), theta)
        np.testing.assert_allclose(law.w_of_theta(theta), 100.0 * theta)

    def test_enthalpy_identity(self):
        law = con.thermal_law_for(material(c_v=7.0))
        theta = 1.3
        # w = theta phi' - phi
        assert law.w_of_theta(theta) == pytest.approx(
            theta * law.phi_prime(theta) - float(law.phi(theta))
        )

    def test_phi_prime_rejects_nonpositive(self):
        law = con.thermal_law_for(material(c_v=1.0))
        with pytest.raises(ThermodynamicError):
            law.phi_prime(np.array([0.0]))

    def test_invalid_cv(self):
        with pytest.raises(ConfigError):
            con.MaterialParams(c_v=0.0).validate()

    def test_entropy_density(self):
        p = material(c_v=10.0, a0=2.0)
        m = np.array([0.5, 0.0])
        eta = con.entropy_density(m, 1.5, p)
        assert eta == pytest.approx(10.0 * np.log(1.5) - 2.0 * 0.25, rel=1e-12)
        # d eta / d theta = c / theta > 0
        h = 1e-6
        fd = (con.entropy_density(m, 1.5 + h, p)
              - con.entropy_density(m, 1.5 - h, p)) / (2 * h)
        assert fd == pytest.approx(10.0 / 1.5, rel=1e-6)
