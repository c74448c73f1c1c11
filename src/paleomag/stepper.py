"""One fully implicit time step of the coupled discrete system.

The nonlinear step is solved by a plain fixed-point sweep over the blocks
(v -> Ee/Ep -> m -> u -> w): each sweep takes every block's new iterate as
it stands, and the sweeps repeat to a monolithic tolerance.  Temperature
follows the paper-prescribed lagged placement: the Maxwell viscosity M,
the conductivity K, and the dissipation potential zeta are evaluated at
theta^{k-1}; every other temperature occurrence is implicit.

Within each sweep the corotational couplings are solved exactly per cell
(the symmetric strain pair in closed form, in its trace/deviator basis).
The magnetization inclusion (I/tau - W) m - m_prev/tau + (v.grad) m =
r(h_eff(m)), with r the zeta-resolvent, is solved by semismooth Newton
passes: the resolvent is radial, so its generalized Jacobian Dr is a
closed-form 2x2 matrix per cell, and each pass solves (I/tau - W - Dr Dh)
per cell in closed form, Dh being the Jacobian of the anisotropy field.
Advection, exchange and the gradient regularizations (varkappa Laplacian
of the inelastic rate, the hyperstress) are taken at the current iterate,
so the converged sweep satisfies the fully implicit equations.  Under
temperature control the sweep starts at the prescribed temperature.

One sweep suffices, and the step takes exactly one, where no block is
lagged: a 0D step under temperature control with no stress drive.  There
v, L, Ee, R and Ep follow from the previous state and the loads alone, the
m block reads the prescribed temperature, and w is prescribed, so no block
reads a field that a later block of the same sweep writes, and the first
sweep is already the fixed point.  A stress drive makes L read the Ee
iterate, free enthalpy makes the m block read the previous sweep's w, and
a spatial step couples every block through v and h_dem; those steps sweep
until nothing changes.  The residual gate decides acceptance either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import constitutive as con
from . import kinematics as kin
from .demag import h_dem_from_u, solve_demag
from .errors import CflViolation, NumericalError, ThermodynamicError
from .grid import EYE, NCOMP, FieldState, Grid, LoadsSample


@dataclass
class StepOptions:
    """The settings of one implicit step.

    The sweep's limits and tolerances are the module constants
    _MAX_SWEEPS, _TOL_REL, _TOL_ABS and _CFL_MAX, the same for every step.
    """

    dt: float
    eps: float = 0.0              # regularization: omega_eps and the (1-eps) heat factor
    demag: bool = True
    demag_boundary: str = "farfield"

    def validate(self) -> None:
        if not self.dt > 0.0:
            raise NumericalError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.eps < 1.0:
            raise NumericalError(f"eps must be in [0, 1), got {self.eps}")
        if self.demag_boundary not in ("farfield", "zero"):
            raise NumericalError(
                f"demag_boundary must be 'farfield' or 'zero', got {self.demag_boundary!r}"
            )


@dataclass
class StepReport:
    """Solver diagnostics for one attempted step."""

    iterations: int = 0           # outer block sweeps; 1 where no block is lagged
    m_passes: int = 0             # Newton passes of the m block, over all sweeps
    krylov_applications: int = 0  # operator applications of the Krylov solves
    residuals: dict = field(default_factory=dict)
    accepted: bool = False
    dt: float = 0.0
    message: str = ""


# ---------------------------------------------------------------------------
# closed-form per-cell solves


def _corot_solve(B: np.ndarray, wspin, a, lam=0.0) -> np.ndarray:
    """Symmetric E with a E - W E + E W + lam dev E = B per cell, W = [[0,-w],[w,0]].

    B is symmetric (its off-diagonal is read from B_01).  The corotational
    term is trace-free and maps the deviator (d, e) = ((E11 - E22)/2, E12)
    to 2w (e, -d), so tr E = tr B / a, and (d, e) solves
    [[c, 2w], [-2w, c]] (d, e) = ((B11 - B22)/2, B12) with c = a + lam and
    det = c^2 + 4 w^2 > 0.
    """
    c = a + lam
    bd = 0.5 * (B[..., 0, 0] - B[..., 1, 1])
    be = B[..., 0, 1]
    det = c * c + 4.0 * wspin * wspin
    d = (c * bd - 2.0 * wspin * be) / det
    e = (c * be + 2.0 * wspin * bd) / det
    half_tr = 0.5 * (B[..., 0, 0] + B[..., 1, 1]) / a
    E = np.empty(np.shape(d) + (NCOMP, NCOMP))
    E[..., 0, 0] = half_tr + d
    E[..., 1, 1] = half_tr - d
    E[..., 0, 1] = e
    E[..., 1, 0] = e
    return E


def _solve_2x2(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Closed-form per-cell solve of J x = rhs for 2x2 matrices J."""
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    x = np.empty(np.shape(det) + (NCOMP,))
    x[..., 0] = (J[..., 1, 1] * rhs[..., 0] - J[..., 0, 1] * rhs[..., 1]) / det
    x[..., 1] = (J[..., 0, 0] * rhs[..., 1] - J[..., 1, 0] * rhs[..., 0]) / det
    return x


# Newton passes of the m block per sweep before the step is rejected
_M_PASSES = 60
# block sweeps per step before the step is rejected
_MAX_SWEEPS = 200
# the sweep stops once no block changes by more than _TOL_REL relative;
# the m block and the residual gate add the absolute floor _TOL_ABS
_TOL_REL = 1e-11
_TOL_ABS = 1e-13
# largest |v| dt / h on any axis
_CFL_MAX = 0.9


def boundary_source(j_ext: float, grid: Grid) -> np.ndarray:
    """Volumetric source j * (face area / cell volume) on boundary cells.

    Integrates to j * |boundary|; the material point carries unit area.
    """
    src = grid.scalar_field()
    if grid.dim == 0:
        src[...] = j_ext
        return src
    for a in range(grid.dim):
        h = grid.spacing[a]
        sa = np.moveaxis(src, a, 0)
        sa[0] += j_ext / h
        sa[-1] += j_ext / h
    return src


def _max_abs(x) -> float:
    return float(abs(x).max())


def _check_cfl(v: np.ndarray, grid: Grid, dt: float) -> None:
    for a in range(grid.dim):
        h = grid.spacing[a]
        vmax = _max_abs(v[..., a])
        if vmax * dt / h > _CFL_MAX:
            raise CflViolation(
                f"axis {a}: |v| dt/h = {vmax * dt / h:.3f} exceeds {_CFL_MAX}"
            )


def _hyperstress_force(Ev: np.ndarray, grid: Grid, params: con.MaterialParams) -> np.ndarray:
    """div div H with H = nu2 |grad E(v)|^(p-2) grad E(v) (zero when nu2 = 0)."""
    if params.nu2 == 0.0 or grid.dim == 0:
        return np.zeros(Ev.shape[:-1])
    GE = kin.grad_tensor(Ev, grid)
    norm = np.sqrt(np.sum(GE * GE, axis=(-3, -2, -1)))
    H = params.nu2 * (norm ** (params.p - 2.0))[..., None, None, None] * GE
    T = np.zeros(Ev.shape)
    for a in range(grid.dim):
        T += kin._central_diff(H[..., a], grid, a, "even")
    return kin.div_tensor(T, grid)


def stress_structural(
    m: np.ndarray,
    grad_m: np.ndarray,
    h_eff: np.ndarray,
    params: con.MaterialParams,
) -> np.ndarray:
    """Structural stress: Maxwell/exchange part plus the magnetic couple.

    S_str = kappa mu0 (grad m (.) grad m - |grad m|^2/2 I)
            - mu0 skw(h_eff (x) m),
    where (grad m (.) grad m)_ij = d_i m_k d_j m_k.  The couple term is the
    skew stress whose working against the spin balances the corotational
    transport of m in the energy identities.
    """
    outer_h_m = h_eff[..., :, None] * m[..., None, :]
    S = -params.mu0 * kin.skw(outer_h_m)
    if params.kappa != 0.0:
        gm = np.einsum("...ki,...kj->...ij", grad_m, grad_m)
        trg = np.einsum("...kk->...", gm)
        S = S + params.kappa * params.mu0 * (gm - 0.5 * trg[..., None, None] * EYE)
    return S


# ---------------------------------------------------------------------------
# discrete operators shared by the sweep, the residual check and the audit


def _velocity_gradient(v, Ee, loads_k: LoadsSample, grid: Grid, params) -> tuple:
    """Velocity gradient L of the step and whether the kinematics are driven.

    Prescribed grad_v, or quasi-static deviatoric stress control (Jeffreys
    element: nu1 E(v) + dev S_E = sigma_applied), or the solved velocity;
    a 0D material point has no velocity gradient of its own.
    """
    if loads_k.grad_v_k is not None:
        return np.broadcast_to(loads_k.grad_v_k, grid.spatial_shape + (NCOMP, NCOMP)), True
    if loads_k.stress_dev_k is not None:
        S_dev = kin.dev(con.stress_elastic(Ee, params))
        return (loads_k.stress_dev_k - S_dev) / params.nu1, True
    if grid.dim == 0:
        return np.zeros((NCOMP, NCOMP)), False
    return kin.grad_vector(v, grid, kind="velocity"), False


def _drive_field(m, theta, loads_k: LoadsSample, grid: Grid, params, eps) -> np.ndarray:
    """h_drv = h_anisotropy + h_ext + kappa Delta m (demag added by the caller)."""
    h_drv = con.h_anisotropy(m, theta, params, eps) + loads_k.h_ext_k
    if params.kappa != 0.0 and grid.dim >= 1:
        h_drv = h_drv + params.kappa * kin.laplacian(m, grid)
    return h_drv


def _objective_rates(state_new: FieldState, state_prev: FieldState, L, grid: Grid, tau) -> tuple:
    """ZJ rates R of Ep and r of m over the step, and the convective rate of m."""
    v, m = state_new.v, state_new.m
    R = (state_new.Ep - state_prev.Ep) / tau + kin.bzj_tensor(v, L, state_new.Ep, grid)
    r = (m - state_prev.m) / tau + kin.bzj_vector(v, L, m, grid)
    r_conv = r + kin.matvec(kin.skw(L), m)
    return R, r, r_conv


def _adiabatic_coupling(theta, m, r_conv, divv, params, eps):
    """theta [omega_eps_hat]'(m) . r_conv + (theta omega_eps_hat(m) + phi(theta)) div v."""
    phi = con.thermal_law_for(params).phi(theta)
    return (
        theta * np.sum(con.omega_eps_hat_prime(m, params, eps) * r_conv, axis=-1)
        + (theta * con.omega_eps_hat(m, params, eps) + phi) * divv
    )


def _heat_residual_field(
    w_new, w_prev, v, theta_new, xi, adiab, j_src, grid: Grid, params, tau, eps
):
    """Residual of the enthalpy equation; under theta control, the control flux."""
    adv_w = kin.advect_scalar(w_new, v, grid) if grid.dim >= 1 else 0.0
    cond = params.K_cond * kin.laplacian(np.asarray(theta_new), grid) if grid.dim >= 1 else 0.0
    return (w_new - w_prev) / tau + adv_w - cond - (1.0 - eps) * xi - adiab - j_src


def _stress(Ee, m, Ev, h_eff, grid: Grid, params) -> np.ndarray:
    """Stress S_E + nu1 E(v) + S_str (the hyperstress enters separately)."""
    S_str = stress_structural(m, kin.grad_vector(m, grid), h_eff, params)
    return con.stress_elastic(Ee, params) + params.nu1 * Ev + S_str


def _momentum_residual_field(
    v, v_prev, Ee, m, h_eff, h_dem, b_lag, loads_k: LoadsSample, grid: Grid, params, tau
):
    """Residual of the discrete momentum balance at velocity v."""
    G = kin.grad_vector(v, grid, kind="velocity")
    Ev = kin.sym(G)
    f_mag = params.mu0 * kin.matvec(np.swapaxes(kin.grad_vector(h_dem, grid), -1, -2), m)
    return (
        params.rho * ((v - v_prev) / tau + kin.upwind_advect(v, v, grid))
        + 0.5 * params.rho * kin.tensor_trace(G)[..., None] * v
        - kin.div_tensor(_stress(Ee, m, Ev, h_eff, grid, params), grid)
        + _hyperstress_force(Ev, grid, params)
        - f_mag
        - params.rho * loads_k.g * (1.0 - np.asarray(b_lag))[..., None]
    )


def step(
    state_prev: FieldState,
    loads_k: LoadsSample,
    grid: Grid,
    params: con.MaterialParams,
    opts: StepOptions,
) -> tuple[FieldState, StepReport]:
    """Advance one fully implicit step; returns (new state, report).

    On solver non-convergence, including a failed Krylov solve, the previous
    state is returned with report.accepted = False (the caller halves dt).
    CFL violations raise CflViolation; w < -_TOL_ABS raises ThermodynamicError.
    """
    opts.validate()
    thermal = con.thermal_law_for(params)
    tau = opts.dt
    eps = opts.eps

    theta_prev = thermal.theta_of_w(state_prev.w)
    M_lag = np.asarray(con.maxwell_viscosity(theta_prev, params))
    b_lag = con.buoyancy_b(theta_prev, params)

    v = state_prev.v.copy()
    Ee = state_prev.Ee.copy()
    Ep = state_prev.Ep.copy()
    m = state_prev.m.copy()
    u = state_prev.u.copy()
    w = state_prev.w.copy()
    theta_k = np.asarray(theta_prev).copy()
    w_ctrl = None
    if loads_k.theta_k is not None:
        # every sweep assigns the prescribed enthalpy, so the first one
        # already solves m at the step's temperature
        w_ctrl = np.broadcast_to(thermal.w_of_theta(loads_k.theta_k), grid.spatial_shape)
        w = w_ctrl.copy()
        theta_k = thermal.theta_of_w(np.maximum(w, 0.0))
    R = np.zeros_like(Ee)
    # the lagged field: u of a step's input state is the demag potential
    # of its m (run_scenario gates a supplied state on it)
    h_dem = np.zeros_like(m)
    if opts.demag and grid.dim >= 1:
        h_dem = h_dem_from_u(state_prev.u, grid)
    j_src = boundary_source(loads_k.j_ext_k, grid)

    driven = loads_k.grad_v_k is not None or loads_k.stress_dev_k is not None
    # no block reads a field that a later block of the same sweep writes,
    # so the first sweep is the fixed point (see the module docstring)
    one_pass = grid.dim == 0 and loads_k.stress_dev_k is None and w_ctrl is not None
    converged = False
    report = StepReport(dt=tau)

    for it in range(_MAX_SWEEPS):
        report.iterations = it + 1
        # --- kinematic block -------------------------------------------------
        if driven:
            v_new = v
        elif grid.dim == 0:
            v_new = state_prev.v + tau * loads_k.g * (1.0 - b_lag)
        else:
            v_new, failure = _momentum_solve(
                state_prev.v, v, Ee, m, h_dem, b_lag, theta_k, loads_k, grid, params, opts,
                report,
            )
            if failure:
                report.message = f"momentum solve failed ({failure})"
                return state_prev, report
        if grid.dim >= 1:
            _check_cfl(v_new, grid, tau)
        L, _ = _velocity_gradient(v_new, Ee, loads_k, grid, params)
        Ev = kin.sym(L)
        Wsp = kin.skw(L)
        wspin = np.asarray(Wsp[..., 1, 0])

        # --- strain block (Ee, R, Ep) ---------------------------------------
        # (1/tau) Ee + corot + (2 G_E / M) dev Ee = rhs, then R, then Ep
        lapR = (
            kin.laplacian(R, grid) if (params.varkappa != 0.0 and grid.dim >= 1) else 0.0
        )
        adv_Ee = kin.upwind_advect(Ee, v_new, grid) if grid.dim >= 1 else 0.0
        rhs_e = (
            Ev + state_prev.Ee / tau - adv_Ee
            - params.varkappa * np.asarray(lapR) / M_lag[..., None, None]
        )
        Ee_new = _corot_solve(rhs_e, wspin, 1.0 / tau, 2.0 * params.G_E / M_lag)
        R_new = (
            2.0 * params.G_E * kin.dev(Ee_new) + params.varkappa * np.asarray(lapR)
        ) / M_lag[..., None, None]

        adv_Ep = kin.upwind_advect(Ep, v_new, grid) if grid.dim >= 1 else 0.0
        Ep_new = _corot_solve(R_new + state_prev.Ep / tau - adv_Ep, wspin, 1.0 / tau)

        # --- magnetization block: one semismooth Newton step per pass -------
        # F(m) = (I/tau - W) m - m_prev/tau + adv_m - r(h_eff(m)) with adv_m
        # and kappa Delta m held at the iterate; J = (I/tau - W) - Dr Dh, and
        # J m_new = J m - F(m) is solved in closed form per cell
        A_m = EYE / tau - Wsp
        m_it = m
        for _ in range(_M_PASSES):
            report.m_passes += 1
            h_eff = _drive_field(m_it, theta_k, loads_k, grid, params, eps) + h_dem
            r = con.zeta_resolvent(theta_prev, h_eff, params)
            adv_m = kin.upwind_advect(m_it, v_new, grid) if grid.dim >= 1 else 0.0
            DrDh = con.zeta_resolvent_jacobian(h_eff, r, params) @ con.h_anisotropy_jacobian(
                m_it, theta_k, params, eps
            )
            m_cand = _solve_2x2(
                A_m - DrDh, state_prev.m / tau - adv_m + r - kin.matvec(DrDh, m_it)
            )
            # snap exact sticking: cells with zero rate, spin, and advection
            # keep m bit-identical, so the audited rate is exactly zero
            stuck = (r[..., 0] == 0.0) & (r[..., 1] == 0.0) & (wspin == 0.0)
            if grid.dim >= 1:
                stuck &= (adv_m[..., 0] == 0.0) & (adv_m[..., 1] == 0.0)
            m_cand = np.where(stuck[..., None], state_prev.m, m_cand)
            dm = _max_abs(m_cand - m_it)
            m_it = m_cand
            if not math.isfinite(dm):
                report.message = f"magnetization block failed (non-finite iterate, change {dm})"
                return state_prev, report
            if dm < _TOL_ABS + _TOL_REL * max(1.0, _max_abs(m_it)):
                break
        else:
            report.message = (
                f"magnetization block did not converge in {_M_PASSES} passes "
                f"(last change {dm:.3e})"
            )
            return state_prev, report
        m_new = m_it

        # --- demag block -----------------------------------------------------
        if opts.demag and grid.dim >= 1:
            sol = solve_demag(m_new, grid, params.mu0, opts.demag_boundary)
            u_new, h_dem = sol.u, sol.h_dem
        else:
            u_new = np.zeros_like(state_prev.u)
            h_dem = np.zeros_like(m_new)

        # --- enthalpy block ---------------------------------------------------
        xi = _xi_field(Ev, R_new, r, theta_prev, M_lag, grid, params)
        r_conv = (m_new - state_prev.m) / tau + (
            kin.upwind_advect(m_new, v_new, grid) if grid.dim >= 1 else 0.0
        )
        adiab = _adiabatic_coupling(theta_k, m_new, r_conv, kin.tensor_trace(L), params, eps)
        if w_ctrl is not None:
            w_new = w_ctrl.copy()
        elif grid.dim == 0:
            w_new = state_prev.w + tau * ((1.0 - eps) * xi + adiab + j_src)
        else:
            w_new, failure = _heat_solve(
                state_prev.w, w, v_new, xi, adiab, j_src, grid, params, tau, eps, report
            )
            if failure:
                report.message = f"heat solve failed ({failure})"
                return state_prev, report
        theta_new = thermal.theta_of_w(np.maximum(w_new, 0.0))

        # --- convergence ------------------------------------------------------
        change = 0.0
        if not one_pass:
            for old, new in ((v, v_new), (Ee, Ee_new), (Ep, Ep_new), (m, m_new), (w, w_new)):
                change = max(change, _max_abs(new - old) / max(1.0, _max_abs(new)))
        v, Ee, Ep, m, u, w = v_new, Ee_new, Ep_new, m_new, u_new, w_new
        theta_k = theta_new
        if change < _TOL_REL:
            converged = True
            break

    if not converged:
        report.message = f"no convergence after {report.iterations} sweeps (change {change:.3e})"
        return state_prev, report

    if float(np.min(w)) < -_TOL_ABS:
        raise ThermodynamicError(f"enthalpy became negative: min w = {float(np.min(w)):.3e}")
    w = np.maximum(w, 0.0)

    state_new = FieldState(
        v=np.array(v, dtype=np.float64).reshape(state_prev.v.shape),
        Ee=kin.sym(Ee),
        Ep=Ep,
        m=m,
        u=u,
        w=w,
        t=state_prev.t + tau,
    )
    report.residuals = residuals(state_new, state_prev, loads_k, grid, params, opts)
    report.accepted = all(
        _within_tolerance(res, scale) for res, scale in report.residuals.values()
    )
    if not report.accepted:
        report.message = "converged iterate fails residual check: " + ", ".join(
            f"{k}={res:.2e}/{scale:.2e}" for k, (res, scale) in report.residuals.items()
        )
        return state_prev, report
    return state_new, report


def _xi_field(Ev, R, r, theta_prev, M_lag, grid: Grid, params: con.MaterialParams):
    """Dissipation heat source xi(theta^{k-1}; E(v), R, mdot) >= 0; M_lag = M(theta^{k-1})."""
    xi = params.nu1 * np.sum(Ev * Ev, axis=(-2, -1))
    xi = xi + M_lag * np.sum(R * R, axis=(-2, -1))
    xi = xi + params.mu0 * con.zeta_diss(theta_prev, r, params)
    if params.nu2 != 0.0 and grid.dim >= 1:
        GE = kin.grad_tensor(Ev, grid)
        xi = xi + params.nu2 * np.sum(GE * GE, axis=(-3, -2, -1)) ** (params.p / 2.0)
    if params.varkappa != 0.0 and grid.dim >= 1:
        GR = kin.grad_tensor(R, grid)
        xi = xi + params.varkappa * np.sum(GR * GR, axis=(-3, -2, -1))
    return xi


def _bicgstab(apply_op, rhs: np.ndarray, x0: np.ndarray, lu, report=None) -> tuple:
    """Matrix-free bicgstab solve of apply_op(x) = rhs from x0; (x, failure).

    ``lu`` (a SuperLU factorization of the operator) is the right
    preconditioner: bicgstab still stops on the residual of apply_op, so an
    inexact ``lu`` costs iterations, never accuracy.  ``failure`` is "" on
    success, else why the solve failed.  An rhs or x0 whose 2-norm is not
    finite (NaN, inf, or so large that the norm overflows) fails at once:
    bicgstab's stopping test reads that norm, so it would only iterate to
    its limit.  Each application of apply_op is counted in
    ``report.krylov_applications`` when a StepReport is given.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rhs), np.linalg.norm(x0)
    if not np.all(np.isfinite(norms)):
        return x0, "non-finite norm of the right-hand side or initial guess"
    import scipy.sparse.linalg as spla

    def counted(x):
        if report is not None:
            report.krylov_applications += 1
        return apply_op(x)

    n = rhs.size
    op = spla.LinearOperator((n, n), matvec=counted, dtype=np.float64)
    M = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    sol, info = spla.bicgstab(op, rhs.ravel(), x0=x0.ravel(), rtol=1e-12, atol=1e-14, M=M)
    return sol.reshape(x0.shape), (f"bicgstab info={info}" if info != 0 else "")


# Composed central differences couple cells at most _REACH apart on each
# axis; ghost reflection only brings a source closer to its target.
_REACH = 2
_COLOURS = 2 * _REACH + 1


def _probe_matrix(apply_op, spatial_shape: tuple, comps: tuple):
    """CSC matrix of the linear stencil operator apply_op on fields of this shape.

    The matrix is probed from apply_op itself: cells are coloured by index
    mod _COLOURS on each axis, and one application per colour and input
    component recovers every column exactly, since a row meets at most one
    cell of each colour within reach.
    """
    import scipy.sparse as sp

    shape = spatial_shape + comps
    n = int(np.prod(shape))
    ncomp = int(np.prod(comps))
    cell = np.indices(spatial_shape)
    rows = np.arange(n).reshape(shape)
    entries = []
    for colour in np.ndindex((_COLOURS,) * len(spatial_shape)):
        painted = np.all([i % _COLOURS == c for c, i in zip(colour, cell)], axis=0)
        if not np.any(painted):
            continue
        # the one painted cell within reach of each cell; where it falls
        # outside the grid, no painted cell is in reach and the row reads 0
        src = [i - _REACH + (c - i + _REACH) % _COLOURS for c, i in zip(colour, cell)]
        src_cell = np.ravel_multi_index(src, spatial_shape, mode="clip")
        first_col = (src_cell * ncomp).reshape(spatial_shape + (1,) * len(comps))
        for k in range(ncomp):
            e = np.zeros((painted.size, ncomp))
            e[painted.ravel(), k] = 1.0
            out = apply_op(e.ravel()).reshape(shape)
            keep = out != 0.0
            entries.append((rows[keep], np.broadcast_to(first_col + k, shape)[keep], out[keep]))
    r, c, v = (np.concatenate(parts) for parts in zip(*entries))
    return sp.csc_matrix((v, (r, c)), shape=(n, n))


def _probe_lu(apply_op, spatial_shape: tuple, comps: tuple):
    """Sparse LU of the probed operator, in the lowest-fill column ordering."""
    import scipy.sparse.linalg as spla

    return spla.splu(_probe_matrix(apply_op, spatial_shape, comps), permc_spec="MMD_AT_PLUS_A")


def _momentum_operator(grid: Grid, rho_tau: float, nu1: float):
    """x -> rho v / tau - div(nu1 E(v)), the implicit part of the momentum balance."""

    def apply_op(x):
        vv = np.asarray(x, dtype=np.float64).reshape(grid.spatial_shape + (NCOMP,))
        Ev = kin.sym(kin.grad_vector(vv, grid, kind="velocity"))
        return (rho_tau * vv - kin.div_tensor(nu1 * Ev, grid)).ravel()

    return apply_op


def _heat_operator(grid: Grid, tau: float, K_cond: float, c_v: float):
    """x -> w / tau - K Delta theta(w), the implicit part of the enthalpy balance."""
    thermal = con.ThermalLaw(c_v)

    def apply_op(x):
        ww = np.asarray(x, dtype=np.float64).reshape(grid.spatial_shape)
        cond = K_cond * kin.laplacian(thermal.theta_of_w(ww), grid)
        return (ww / tau - cond).ravel()

    return apply_op


# Keyed by everything the operator reads; a halved dt refactors once.
@functools.lru_cache(maxsize=4)
def _momentum_lu(grid: Grid, rho_tau: float, nu1: float):
    return _probe_lu(_momentum_operator(grid, rho_tau, nu1), grid.spatial_shape, (NCOMP,))


@functools.lru_cache(maxsize=4)
def _heat_lu(grid: Grid, tau: float, K_cond: float, c_v: float):
    return _probe_lu(_heat_operator(grid, tau, K_cond, c_v), grid.spatial_shape, ())


def _momentum_solve(
    v_prev, v_cur, Ee, m, h_dem, b_lag, theta_k, loads_k: LoadsSample,
    grid: Grid, params: con.MaterialParams, opts: StepOptions, report: StepReport,
):
    """Implicit Stokes-like solve with the remaining momentum terms lagged.

    The operator A v = rho v / tau - div(nu1 E(v)) is implicit; the rest of
    the balance enters through the right-hand side A v_cur - res(v_cur).
    """
    tau = opts.dt
    h_eff = _drive_field(m, theta_k, loads_k, grid, params, opts.eps) + h_dem
    res = _momentum_residual_field(
        v_cur, v_prev, Ee, m, h_eff, h_dem, b_lag, loads_k, grid, params, tau
    )
    rho_tau = params.rho / tau
    apply_op = _momentum_operator(grid, rho_tau, params.nu1)
    lu = _momentum_lu(grid, rho_tau, params.nu1)
    return _bicgstab(apply_op, apply_op(v_cur) - res.ravel(), v_cur, lu, report)


def _heat_solve(
    w_prev, w_cur, v_new, xi, adiab, j_src, grid: Grid,
    params: con.MaterialParams, tau, eps, report: StepReport,
):
    """Implicit conduction solve; advection and sources at the current sweep.

    The thermal law is linear (theta = w / c_v), so the Fourier term is
    implicit in w.
    """
    adv = kin.advect_scalar(w_cur, v_new, grid)
    rhs = w_prev / tau - adv + (1.0 - eps) * xi + adiab + j_src
    apply_op = _heat_operator(grid, tau, params.K_cond, params.c_v)
    lu = _heat_lu(grid, tau, params.K_cond, params.c_v)
    return _bicgstab(apply_op, rhs, w_cur, lu, report)


def _potential_residual(
    u: np.ndarray, m: np.ndarray, grid: Grid, params: con.MaterialParams, opts: StepOptions
) -> tuple[float, float]:
    """(residual, scale) of u against the demag potential of m (0 without demag)."""
    if opts.demag and grid.dim >= 1:
        u_m = solve_demag(m, grid, params.mu0, opts.demag_boundary).u
        return _max_abs(u - u_m), max(1.0, _max_abs(u_m))
    return _max_abs(u), 1.0


def _within_tolerance(res: float, scale: float) -> bool:
    """The residual gate of one block: res <= _TOL_ABS + 100 _TOL_REL scale."""
    return res <= _TOL_ABS + 100.0 * _TOL_REL * scale


def residuals(
    state_trial: FieldState,
    state_prev: FieldState,
    loads_k: LoadsSample,
    grid: Grid,
    params: con.MaterialParams,
    opts: StepOptions,
) -> dict:
    """Max-norm residuals of the six discrete equations, with scales.

    Returns {name: (residual, scale)}; each residual vanishes iff the
    corresponding discrete equation holds exactly on the grid.
    """
    thermal = con.thermal_law_for(params)
    tau = opts.dt
    eps = opts.eps
    theta_prev = thermal.theta_of_w(state_prev.w)
    theta_new = thermal.theta_of_w(state_trial.w)
    M_lag = np.asarray(con.maxwell_viscosity(theta_prev, params))
    v, Ee, m = state_trial.v, state_trial.Ee, state_trial.m

    L, driven = _velocity_gradient(v, Ee, loads_k, grid, params)
    Ev = kin.sym(L)
    R, r, r_conv = _objective_rates(state_trial, state_prev, L, grid, tau)

    # (b) strain split
    res_b = (Ee - state_prev.Ee) / tau + kin.bzj_tensor(v, L, Ee, grid) + R - Ev
    scale_b = max(1.0, _max_abs(Ee)) / tau

    # (c) inelastic flow rule M(theta^{k-1}) R = dev S_E + varkappa lap R
    lapR = kin.laplacian(R, grid) if (params.varkappa != 0.0 and grid.dim >= 1) else 0.0
    devS = kin.dev(con.stress_elastic(Ee, params))
    res_c = M_lag[..., None, None] * R - devS - params.varkappa * np.asarray(lapR)
    scale_c = max(_max_abs(devS), float(M_lag.max()) * _max_abs(R), 1e-30)

    # (d) magnetization inclusion
    h_dem = h_dem_from_u(state_trial.u, grid)
    h_eff = _drive_field(m, theta_new, loads_k, grid, params, eps) + h_dem
    rmag = np.hypot(r[..., 0], r[..., 1])
    H = np.hypot(h_eff[..., 0], h_eff[..., 1])
    # rates at the roundoff floor of the m update count as sticking
    rate_floor = 64.0 * np.finfo(np.float64).eps * max(1.0, _max_abs(m)) / tau
    moving = rmag > rate_floor
    zp = con.zeta_prime(theta_prev, np.maximum(rmag, 1e-300), params)
    viol = h_eff - (zp / np.maximum(rmag, 1e-300))[..., None] * r
    viol_moving = np.hypot(viol[..., 0], viol[..., 1])
    viol_stuck = np.maximum(H - con.h_c(theta_prev, params), 0.0)
    res_d_field = np.where(moving, viol_moving, viol_stuck)
    scale_d = max(1.0, float(H.max()))

    # (e) demag potential
    res_e, scale_e = _potential_residual(state_trial.u, m, grid, params, opts)

    # (f) enthalpy
    if loads_k.theta_k is not None:
        res_f = _max_abs(state_trial.w - thermal.w_of_theta(loads_k.theta_k))
        scale_f = max(1.0, _max_abs(state_trial.w))
    else:
        xi = _xi_field(Ev, R, r, theta_prev, M_lag, grid, params)
        adiab = _adiabatic_coupling(theta_new, m, r_conv, kin.tensor_trace(L), params, eps)
        res_f_field = _heat_residual_field(
            state_trial.w, state_prev.w, v, theta_new, xi, adiab,
            boundary_source(loads_k.j_ext_k, grid), grid, params, tau, eps,
        )
        res_f = _max_abs(res_f_field)
        scale_f = max(1.0, _max_abs(state_trial.w)) / tau

    # (a) momentum
    res_a, scale_a = 0.0, 1.0  # kinematics prescribed; momentum not solved
    if not driven:
        res_a_field = _momentum_residual_field(
            v, state_prev.v, Ee, m, h_eff, h_dem, con.buoyancy_b(theta_prev, params),
            loads_k, grid, params, tau,
        )
        res_a = _max_abs(res_a_field)
        scale_a = params.rho * max(1.0, _max_abs(v)) / tau

    return {
        "momentum": (res_a, scale_a),
        "strain": (_max_abs(res_b), scale_b),
        "ep_flow": (_max_abs(res_c), scale_c),
        "m_inclusion": (float(res_d_field.max()), scale_d),
        "potential": (res_e, scale_e),
        "enthalpy": (res_f, scale_f),
    }


__all__ = [
    "StepOptions",
    "StepReport",
    "step",
    "residuals",
    "stress_structural",
    "boundary_source",
]
