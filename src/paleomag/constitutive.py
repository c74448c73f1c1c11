"""Material laws: free-energy pieces, dissipation potential and its
resolvent, temperature-dependent viscosities/coercivity, thermal law.

Free energy (in-plane, d = 2 components):

    phi(Ee, m) = (K_E/2) (tr Ee)^2 + G_E |dev Ee|^2 + (b0/2) |m|^4

(the quartic carries the 1/2 so that the minimizer of phi + omega sits
exactly at the saturation magnetization sqrt(a0 (theta_c - theta)/b0))
    omega(m, theta) = a0 (theta - theta_c) |m|^2          (affine in theta)

The paper's existence proof regularizes omega by 1/(1 + eps |m|^2); the
scheme runs the unregularized model (eps = 0), so omega is used as it is.

Dissipation potential for the magnetization rate (radial in |mdot|):

    zeta(hc; mdot) = hc |mdot| + eps_reg |mdot|^3 + tau_c |mdot|^2

(strictly convex when tau_c or eps_reg is positive, so each field h_eff
has one rate mdot).  The scheme lags zeta at theta^{k-1}: its coercivity
hc = h_c(theta^{k-1}) is one value per step, which the caller evaluates
and passes in, so no zeta function evaluates h_c.  The paper's existence
proof needs a growth exponent r > 2 for the eps_reg term; the scheme fixes
r = 3, where the rate has a closed form.

The engine is dimension-agnostic; shipped scenarios are nondimensional.
h_c is expressed in the same units as the driving field h_drv (A/m), so
mu0 * zeta carries the dissipation energy density.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, ConstitutiveError, ThermodynamicError
from .grid import EYE
from .kinematics import dev, sum_matrix, tensor_trace


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants; immutable after construction."""

    rho: float = 1.0          # mass density
    K_E: float = 1.0          # bulk modulus
    G_E: float = 1.0          # shear modulus
    a0: float = 1.0           # magnetic coupling
    b0: float = 1.0           # quartic coefficient
    theta_c: float = 1.0      # Curie/Neel temperature
    theta_b: float = 0.6      # blocking temperature
    h_c_high: float = 0.1     # coercive level below theta_b
    h_c_low: float = 0.0      # coercive level above theta_b
    hc_width: float = 0.02    # blocking transition width
    tau_c: float = 0.05       # viscous magnetization time constant
    eps_reg: float = 1e-6     # coercive regularization coefficient in zeta
    r_exp: float = 3.0        # rate exponent in zeta; 3 is the only value
    kappa: float = 0.0        # exchange coefficient
    varkappa: float = 0.0     # inelastic-rate gradient coefficient
    nu1: float = 1.0          # Stokes viscosity
    nu2: float = 1e-6         # hyperviscosity coefficient
    p: float = 4.0            # hyperstress exponent (> dim)
    mu0: float = 1.0          # vacuum permeability
    M_solid: float = 1e4      # Maxwell viscosity, solid plateau
    M_magma: float = 1e-2     # Maxwell viscosity, magma plateau
    theta_melt: float = 1.5   # melting transition center
    melt_width: float = 0.2   # melting transition width
    K_cond: float = 1.0       # heat conductivity
    c_v: float = 100.0        # heat capacity
    buoyancy_coeff: float = 0.0      # b(theta) = coeff * (theta - ref)
    buoyancy_theta_ref: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"MaterialParams.{name} must be finite, got {value}")
        pos = ("rho", "mu0", "nu1", "K_E", "G_E", "theta_c", "c_v", "K_cond",
               "M_solid", "M_magma", "melt_width", "hc_width")
        for name in pos:
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"MaterialParams.{name} must be > 0, got {getattr(self, name)}")
        nonneg = ("a0", "b0", "nu2", "kappa", "varkappa", "tau_c", "eps_reg",
                  "h_c_high", "h_c_low", "theta_b")
        for name in nonneg:
            if getattr(self, name) < 0.0:
                raise ConfigError(f"MaterialParams.{name} must be >= 0, got {getattr(self, name)}")
        if self.M_solid < self.M_magma:
            raise ConfigError("M_solid must be >= M_magma")
        if self.r_exp != 3.0:
            raise ConfigError(f"r_exp (the rate exponent of zeta) is fixed at 3, got {self.r_exp}")
        if not self.p > 3.0:
            raise ConfigError(f"p must be > r_exp = 3, got {self.p}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "MaterialParams":
        data = dict(data)
        # archived config.json files name the retired rate cap m_r at infinity
        if "m_r" in data and float(data.pop("m_r")) != math.inf:
            raise ConfigError("m_r (the rate cap of zeta) is fixed at inf; "
                              "a config may name it at no other value")
        known = {f.name for f in dataclasses.fields(MaterialParams)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown material parameters: {sorted(unknown)}")
        return MaterialParams(**{k: float(v) for k, v in data.items()})


# ---------------------------------------------------------------------------
# free energy and its derivatives


def _m2(m: np.ndarray) -> np.ndarray:
    return m[..., 0] * m[..., 0] + m[..., 1] * m[..., 1]


def phi_mech(Ee: np.ndarray, m: np.ndarray, params: MaterialParams) -> np.ndarray:
    """phi(Ee, m) = (K_E/2)(tr Ee)^2 + G_E|dev Ee|^2 + (b0/2)|m|^4, >= 0."""
    tr = tensor_trace(Ee)
    dv = dev(Ee)
    return (
        0.5 * params.K_E * tr * tr
        + params.G_E * sum_matrix(dv * dv)
        + 0.5 * params.b0 * _m2(m) ** 2
    )


def stress_elastic(Ee: np.ndarray, params: MaterialParams) -> np.ndarray:
    """S_E = phi'_Ee = K_E (tr Ee) I + 2 G_E dev Ee (symmetric)."""
    return params.K_E * tensor_trace(Ee)[..., None, None] * EYE + 2.0 * params.G_E * dev(Ee)


def phi_m_prime(m: np.ndarray, params: MaterialParams) -> np.ndarray:
    """phi'_m = 2 b0 |m|^2 m."""
    return 2.0 * params.b0 * _m2(m)[..., None] * m


def omega(m: np.ndarray, theta, params: MaterialParams) -> np.ndarray:
    """omega(m, theta) = a0 (theta - theta_c) |m|^2."""
    return params.a0 * (np.asarray(theta) - params.theta_c) * _m2(m)


def omega_m(m: np.ndarray, theta, params: MaterialParams) -> np.ndarray:
    """omega'_m = 2 a0 (theta - theta_c) m."""
    return (2.0 * params.a0 * (np.asarray(theta) - params.theta_c))[..., None] * m


def omega_hat(m: np.ndarray, params: MaterialParams) -> np.ndarray:
    """omega_hat = d omega / d theta = a0 |m|^2."""
    return params.a0 * _m2(m)


def omega_hat_m(m: np.ndarray, params: MaterialParams) -> np.ndarray:
    """omega_hat'_m = 2 a0 m."""
    return 2.0 * params.a0 * m


def h_anisotropy(m: np.ndarray, theta, params: MaterialParams) -> np.ndarray:
    """Anisotropy contribution -(phi'_m + omega'_m)/mu0 to h_drv.

    The shipped free energy has no magnetostrictive cross term, so the
    elastic strain does not enter.
    """
    return -(phi_m_prime(m, params) + omega_m(m, theta, params)) / params.mu0


def _h_anisotropy_jacobian_planes(m: np.ndarray, theta, params: MaterialParams) -> tuple:
    """(Dh_00, Dh_01, Dh_11): the component planes of Dh, the m-Jacobian of h_anisotropy.

    Dh = -(phi''_mm + omega''_mm)/mu0 is symmetric.  With q = |m|^2,
    c = 2 a0 (theta - theta_c) and iso = 2 b0 q + c, -mu0 Dh = iso I +
    4 b0 m m^T.  Each plane is the sum of its two terms, and iso * 0.0 is
    iso I's off-diagonal, so the planes have the bits of the matrix sum,
    the signs of zero included.
    """
    m0, m1 = m[..., 0], m[..., 1]
    q0, q1 = m0 * m0, m1 * m1
    c = 2.0 * params.a0 * (np.asarray(theta) - params.theta_c)
    iso = 2.0 * params.b0 * (q0 + q1) + c
    k = 4.0 * params.b0
    # x / -mu0 has the bits of -x / mu0
    return (
        (iso + k * q0) / -params.mu0,
        (iso * 0.0 + k * (m0 * m1)) / -params.mu0,
        (iso + k * q1) / -params.mu0,
    )


def equilibrium_m(theta: float, h_mag: float, params: MaterialParams) -> float:
    """Magnitude of the stationary magnetization aligned with a field h.

    Solves phi'_m + omega'_m = mu0 h radially:
    2 b0 m^3 + 2 a0 (theta - theta_c) m = mu0 h (largest real root >= 0).
    """
    if params.b0 == 0.0:
        denom = 2.0 * params.a0 * (theta - params.theta_c)
        return params.mu0 * h_mag / denom if denom != 0.0 else 0.0
    roots = np.roots(
        [2.0 * params.b0, 0.0, 2.0 * params.a0 * (theta - params.theta_c), -params.mu0 * h_mag]
    )
    real = roots[np.abs(roots.imag) < 1e-12].real
    real = real[real >= 0.0]
    return float(np.max(real)) if real.size else 0.0


def m_sat(theta, params: MaterialParams):
    """Saturation magnetization sqrt(a0 (theta_c - theta)/b0), 0 above theta_c."""
    theta = np.asarray(theta, dtype=np.float64)
    if params.b0 == 0.0:
        return np.zeros_like(theta)
    gap = np.maximum(params.theta_c - theta, 0.0)
    return np.sqrt(params.a0 * gap / params.b0)


# ---------------------------------------------------------------------------
# temperature-dependent laws


def _logistic(x):
    # overflow-safe 1/(1+exp(x))
    return expit(-np.asarray(x, dtype=np.float64))


def h_c(theta, params: MaterialParams):
    """Smooth monotone step from h_c_high (cold) to h_c_low (hot) at theta_b."""
    theta = np.asarray(theta, dtype=np.float64)
    s = _logistic((theta - params.theta_b) / (params.hc_width / 4.0))
    return params.h_c_low + (params.h_c_high - params.h_c_low) * s


def maxwell_viscosity(theta, params: MaterialParams):
    """Log-linear ramp from M_solid to M_magma across the melting window.

    Midpoint theta_melt gives the geometric mean sqrt(M_solid * M_magma).
    """
    theta = np.asarray(theta, dtype=np.float64)
    s = _logistic((theta - params.theta_melt) / (params.melt_width / 8.0))
    ln_m = math.log(params.M_magma) + (math.log(params.M_solid) - math.log(params.M_magma)) * s
    return np.exp(ln_m)


def buoyancy_b(theta, params: MaterialParams):
    """Oberbeck-Boussinesq factor b(theta) = coeff * (theta - theta_ref)."""
    return params.buoyancy_coeff * (np.asarray(theta, dtype=np.float64) - params.buoyancy_theta_ref)


# ---------------------------------------------------------------------------
# dissipation potential zeta and its resolvent


def zeta(hc, mdot_mag, params: MaterialParams):
    """zeta(hc; |mdot|) = hc|mdot| + eps_reg|mdot|^3 + tau_c|mdot|^2, hc = h_c(theta^{k-1})."""
    s = np.abs(np.asarray(mdot_mag, dtype=np.float64))
    return hc * s + params.eps_reg * s ** 3.0 + params.tau_c * s ** 2


def zeta_prime(hc, mdot_mag, params: MaterialParams):
    """d zeta / d|mdot| for |mdot| > 0, at the coercivity hc = h_c(theta^{k-1})."""
    s = np.asarray(mdot_mag, dtype=np.float64)
    out = hc + 3.0 * params.eps_reg * s ** 2.0
    return out + 2.0 * params.tau_c * s


def zeta_diss(hc, r_vec: np.ndarray, params: MaterialParams):
    """Uniquely defined dissipation density d zeta(hc; mdot) . mdot = zeta'(|r|)|r|.

    Zero at sticking (r = 0) regardless of the multivalued subdifferential.
    """
    s = np.sqrt(_m2(r_vec))
    return np.where(s > 0.0, zeta_prime(hc, s, params) * s, 0.0)


def zeta_resolvent(hc, h_eff: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Solve h_eff in d zeta(hc; mdot) for mdot, hc = h_c(theta^{k-1}) (pointwise).

    By radial symmetry mdot is parallel to h_eff and its magnitude s solves
    zeta'(s) = |h_eff|, which has one root since zeta' increases strictly;
    |h_eff| <= hc gives sticking.  Above it s is the positive root of
    3 eps_reg s^2 + 2 tau_c s = ex, ex = |h_eff| - hc, rationalized: no
    cancellation when 3 eps_reg ex << tau_c^2, and exactly ex / (2 tau_c)
    at eps_reg = 0.
    """
    H = np.sqrt(_m2(h_eff))
    excess = H - hc
    active = excess > 0.0
    s = np.zeros(np.shape(excess))
    if active.any():
        eps, tc = params.eps_reg, params.tau_c
        if eps == 0.0 and tc == 0.0:
            raise ConstitutiveError(
                "zeta has no minimizer above the sticking threshold "
                "(eps_reg = tau_c = 0); the flow rule is ill-posed"
            )
        # sticking cells take ex = 1, so that tau_c = 0 divides no 0 by 0
        ex = np.where(active, excess, 1.0)
        s = np.where(active, ex / (tc + np.sqrt(tc * tc + 3.0 * eps * ex)), 0.0)
    unit = h_eff / np.maximum(H, 1e-300)[..., None]
    return s[..., None] * unit


def _zeta_resolvent_jacobian_planes(h_eff: np.ndarray, r: np.ndarray, params: MaterialParams):
    """(Dr_00, Dr_01, Dr_11): the planes of the resolvent's generalized Jacobian Dr.

    r = zeta_resolvent(h_eff) is radial, r = s(H) u with H = |h_eff| and
    u = h_eff/H, so Dr = (s' - s/H) u u^T + (s/H) I with s' = 1/zeta''(s),
    symmetric, and Dr = 0 at sticking (r = 0).  The planes are written as
    in _h_anisotropy_jacobian_planes, so they have the matrix sum's bits.
    """
    H = np.sqrt(_m2(h_eff))
    s = np.sqrt(_m2(r))
    moving = s > 0.0
    s_on = np.where(moving, s, 1.0)
    zpp = 6.0 * params.eps_reg * s_on + 2.0 * params.tau_c
    ds = np.where(moving, 1.0 / np.maximum(zpp, 1e-300), 0.0)
    H_on = np.maximum(H, 1e-300)
    ratio = np.where(moving, s / H_on, 0.0)
    u0, u1 = h_eff[..., 0] / H_on, h_eff[..., 1] / H_on
    radial = ds - ratio
    return radial * (u0 * u0) + ratio, radial * (u0 * u1) + ratio * 0.0, radial * (u1 * u1) + ratio


# ---------------------------------------------------------------------------
# thermal law and entropy


@dataclass(frozen=True)
class ThermalLaw:
    """Canonical thermal law phi(theta) = c_v theta (ln theta - 1).

    The enthalpy w = theta phi'(theta) - phi(theta) = c_v theta is
    nonnegative and increasing, so theta = w / c_v; the capacity
    theta phi''(theta) is the constant c_v (> 0 by MaterialParams.validate),
    so d eta / d theta = c_v / theta > 0.
    """

    c_v: float

    def phi(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return np.where(
            theta > 0.0, self.c_v * theta * (np.log(np.maximum(theta, 1e-300)) - 1.0), 0.0
        )

    def phi_prime(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if np.any(theta <= 0.0):
            raise ThermodynamicError("phi'(theta) undefined at theta <= 0")
        return self.c_v * np.log(theta)

    def w_of_theta(self, theta):
        return self.c_v * np.asarray(theta, dtype=np.float64)

    def theta_of_w(self, w):
        return np.asarray(w, dtype=np.float64) / self.c_v


def thermal_law_for(params: MaterialParams) -> ThermalLaw:
    return ThermalLaw(params.c_v)


def entropy_density(m: np.ndarray, theta, params: MaterialParams):
    """eta = phi'(theta) - omega_hat(m); undefined at theta = 0."""
    return thermal_law_for(params).phi_prime(theta) - omega_hat(m, params)


__all__ = [
    "MaterialParams",
    "ThermalLaw",
    "buoyancy_b",
    "entropy_density",
    "equilibrium_m",
    "h_anisotropy",
    "h_c",
    "m_sat",
    "maxwell_viscosity",
    "omega",
    "omega_hat",
    "omega_hat_m",
    "omega_m",
    "phi_m_prime",
    "phi_mech",
    "stress_elastic",
    "thermal_law_for",
    "zeta",
    "zeta_diss",
    "zeta_prime",
    "zeta_resolvent",
]
