"""One fully implicit time step of the coupled discrete system.

The nonlinear step is solved by a plain fixed-point sweep over the blocks
(v -> Ee/Ep -> m -> u -> w): each sweep takes every block's new iterate as
it stands, and the sweeps repeat to a monolithic tolerance.  Temperature
follows the paper-prescribed lagged placement: the Maxwell viscosity M, the
buoyancy factor b and the coercivity h_c of the dissipation potential zeta
are evaluated at theta^{k-1}, once per step by ``_lagged`` (the
conductivity K is a constant); every other temperature occurrence is
implicit.

Within each sweep the corotational couplings are solved exactly per cell
(the symmetric strain pair in closed form, in its trace/deviator basis).
The magnetization inclusion (I/tau - W) m - m_prev/tau + (v.grad) m =
r(h_eff(m)), with r the zeta-resolvent, is solved by semismooth Newton
passes: the resolvent is radial, so its generalized Jacobian Dr is a
closed-form 2x2 matrix per cell, and each pass solves (I/tau - W - Dr Dh)
per cell in closed form, Dh being the Jacobian of the anisotropy field.
Dr and Dh are symmetric, so each is three component planes, and the pass
forms P = Dr Dh term by term on the planes, with no BLAS: the m block's
bits do not depend on the BLAS build.
Advection, exchange and the gradient regularizations (varkappa Laplacian
of the inelastic rate, the hyperstress) are taken at the current iterate,
so the converged sweep satisfies the fully implicit equations.  Under
temperature control the sweep starts at the prescribed temperature.

The spatial momentum and enthalpy blocks are linear in their own unknown.
Under the wall rule of kin.div_tensor, fast trigonometric transforms
diagonalize both (Swarztrauber 1977, SIAM Rev. 19:490), so each is solved
exactly by one transform solve at the step's tau, momentum in correction
form: v = v_cur - A^{-1} res(v_cur), the rest of the balance held at v_cur.
The transform spectra depend on the grid and tau alone and are cached per
grid and tau, so a fixed-dt run forms each once.

Each velocity iterate's operators, its gradient L, E(v), the nu2 gradient
grad E(v) and |grad E(v)|^2, and its upwind transport (a _Flow), are
formed once.  The sweep's strain, m and enthalpy blocks read them, and so
does the next sweep's momentum residual, whose v_cur is that iterate; the
first sweep forms those of the previous state's velocity.  The residual
gate's record of a state reads the last sweep's too, except on a
stress-driven step, whose L reads the Ee iterate the strain block replaced.

One sweep suffices, and the step takes exactly one, where no block is
lagged: a 0D step under temperature control with no stress drive.  There
v, L, Ee, R and Ep follow from the previous state and the loads alone, the
m block reads the prescribed temperature, and w is prescribed, so no block
reads a field that a later block of the same sweep writes, and the first
sweep is already the fixed point.  A stress drive makes L read the Ee
iterate, free enthalpy makes the m block read the previous sweep's w, and
a spatial step couples every block through v and h_dem; those steps sweep
until nothing changes.  The residual gate decides acceptance either way.

Both loops stop on their estimated error.  An iteration whose updates fall
from d_prev to d contracts at the rate q = d / d_prev, and the error left
in its iterate is about q d / (1 - q) = d^2 / (d_prev - d): the stopping
test of CVODE's nonlinear solve (Hindmarsh et al. 2005, ACM TOMS 31:363).
- The m block's Newton passes stop once the update dm is below the block's
  tolerance tol_m, or once dm < dm_prev and dm^2 / (dm_prev - dm) < tol_m;
  at Newton's quadratic rate the estimate is conservative.
- The sweep leaves through one gate.  A sweep has converged once no block
  changes by more than _TOL_REL relative; a one-pass step's change is 0.
  A converged iterate with min w < -_TOL_ABS raises ThermodynamicError.
  The sweep forms the state of its iterate and its residuals when it has
  converged, or when change < change_prev, change^2 / (change_prev -
  change) < _TOL_REL and min w >= -_TOL_ABS.  If every residual is within
  its gate, the step returns that state.  If one is not, a converged
  iterate rejects the step, and an estimated one sweeps on as it stands,
  so the estimate never rejects a step that convergence accepts.  After
  _MAX_SWEEPS sweeps the step is rejected.  The estimate alone is not
  enough: the m_inclusion residual grows like dm / tau as dt shrinks.

The m block is solved inexactly: its Newton passes also stop once
dm <= _ETA_M change max(1, |m|), change being the last sweep's largest
relative block change, or in the first sweep the largest that the sweep has
made so far, over v, Ee, R and Ep.  This is the forcing term of an inexact
Newton method (Eisenstat & Walker 1996, SIAM J. Sci. Comput. 17:16): while
the other blocks still move by that much, the next sweep undoes a tighter m
solve.  A one-pass step has no change test, so its change is 0 and its one
sweep solves m to tol_m.  The change test still covers m and w and the
residual gate still decides, so the step converges to the same tolerances.

The m block lags the demag field: the sweep's demag block solves it for
the m that the m block returned, and the next sweep's m block reads it.
The demag map D: m -> h_dem is symmetric with -I <= D <= 0 (the wide
Laplacian div_c grad_c is dominated by the 5-point one, as sin^2 x <=
4 sin^2(x/2)), so the m block's Newton passes read h_dem_k - (m - m_k)/2
on the components along the grid's axes, m_k being the sweep's input m and
h_dem_k its field; the other component of a 1D field is zero and is left
alone.  This stabilizes the explicit term by the midpoint of D's spectrum
(Shen & Yang 2010, Discrete Contin. Dyn. Syst. 28:1669), which halves the
lag's worst-case factor from 1 to 1/2.  At the fixed point m = m_k, so the
shift changes neither the equations nor the residual gate.  A 0D step and
a step without demag have no field to shift and skip it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

from . import constitutive as con
from . import kinematics as kin
from .demag import h_dem_from_u, poisson_residual, solve_demag
from .errors import NumericalError, ThermodynamicError
from .grid import EYE, NCOMP, FieldState, Grid, LoadsSample


@dataclass
class StepReport:
    """Solver diagnostics for one attempted step."""

    # outer block sweeps, 1 where no block is lagged: they stop once a sweep
    # changes no block by more than _TOL_REL relative, or earlier, once the
    # estimated error is below _TOL_REL and the residual gate confirms it
    iterations: int = 0
    change: float = 0.0           # the last sweep's largest relative block change
    m_passes: int = 0             # Newton passes of the m block, over all sweeps
    lu_solves: int = 0            # momentum and heat block solves, one transform solve each
    residuals: dict = field(default_factory=dict)
    accepted: bool = False
    dt: float = 0.0
    message: str = ""
    terms: StepTerms | None = None  # of the last iterate the residual gate checked


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


def _solve_2x2(j00, j01, j10, j11, b0, b1) -> np.ndarray:
    """Closed-form per-cell solve of J x = b, J and b given by their component planes."""
    det = j00 * j11 - j01 * j10
    x = np.empty(np.shape(det) + (NCOMP,))
    x[..., 0] = (j11 * b0 - j01 * b1) / det
    x[..., 1] = (j00 * b1 - j10 * b0) / det
    return x


def _m_newton_update(
    m, h_eff, r, theta, A, b, params: con.MaterialParams, shift=None
) -> np.ndarray:
    """One semismooth Newton update of the m block: x with J x = J m - F(m) per cell.

    J = A - P with A = I/tau - W, given by its planes (A_00, A_01, A_10,
    A_11), and P = Dr Dh, r being the resolvent at h_eff; J m - F(m) is
    b - P m with b = m_prev/tau - (v.grad) m + r.  Dr and Dh are symmetric,
    three planes each, and P is formed term by term on the planes.  Where
    h_eff reads the shifted demag field h_dem_k - shift (m - m_k), shift
    holds the per-component constants and Dh gains -diag(shift).
    """
    dr00, dr01, dr11 = con._zeta_resolvent_jacobian_planes(h_eff, r, params)
    dh00, dh01, dh11 = con._h_anisotropy_jacobian_planes(m, theta, params)
    if shift is not None:
        dh00, dh11 = dh00 - shift[0], dh11 - shift[1]
    p00 = dr00 * dh00 + dr01 * dh01
    p01 = dr00 * dh01 + dr01 * dh11
    p10 = dr01 * dh00 + dr11 * dh01
    p11 = dr01 * dh01 + dr11 * dh11
    m0, m1 = m[..., 0], m[..., 1]
    a00, a01, a10, a11 = A
    return _solve_2x2(
        a00 - p00, a01 - p01, a10 - p10, a11 - p11,
        b[..., 0] - (p00 * m0 + p01 * m1), b[..., 1] - (p10 * m0 + p11 * m1),
    )


# Newton passes of the m block per sweep before the step is rejected
_M_PASSES = 60
# block sweeps per step before the step is rejected
_MAX_SWEEPS = 200
# the sweep stops once no block changes by more than _TOL_REL relative;
# the m block and the residual gate add the absolute floor _TOL_ABS
_TOL_REL = 1e-11
_TOL_ABS = 1e-13
# the m block's Newton passes also stop once dm <= _ETA_M change max(1, |m|),
# change the last sweep's, or in the first sweep this sweep's so far
_ETA_M = 0.1
# the m block reads the lagged demag field as h_dem_k - _DEMAG_SHIFT (m - m_k)
# on the axes' components: the demag map is symmetric with -I <= D <= 0, so
# the midpoint 1/2 of [-1, 0] halves the lag's worst-case factor
_DEMAG_SHIFT = 0.5
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


def _cfl_failure(v: np.ndarray, grid: Grid, dt: float) -> str:
    """Which axis breaks the CFL bound |v| dt/h <= _CFL_MAX ("" where none does)."""
    for a in range(grid.dim):
        courant = _max_abs(v[..., a]) * dt / grid.spacing[a]
        if courant > _CFL_MAX:
            return f"axis {a}: |v| dt/h = {courant:.3f} exceeds {_CFL_MAX}"
    return ""


def _nu2_gradient(Ev: np.ndarray, grid: Grid, params: con.MaterialParams) -> tuple:
    """(grad E(v), |grad E(v)|^2) of the nu2 terms, or (None, None) where they vanish."""
    if params.nu2 == 0.0 or grid.dim == 0:
        return None, None
    GE = kin.grad_tensor(Ev, grid)
    return GE, kin.sum_rank3(GE * GE)


def _hyperstress_force(
    Ev: np.ndarray, grid: Grid, params: con.MaterialParams, GE=None, GE2=None
) -> np.ndarray:
    """div div H with H = nu2 |grad E(v)|^(p-2) grad E(v) (zero when nu2 = 0).

    GE, GE2 are _nu2_gradient(Ev), formed here where the caller has not.  The
    inner divergence's odd ghosts make it the negative adjoint of grad_tensor,
    so sum v . div div H = sum H : grad E(v), xi's nu2 term.
    """
    if params.nu2 == 0.0 or grid.dim == 0:
        return np.zeros(Ev.shape[:-1])
    if GE is None:
        GE, GE2 = _nu2_gradient(Ev, grid, params)
    H = params.nu2 * (np.sqrt(GE2) ** (params.p - 2.0))[..., None, None, None] * GE
    T = np.zeros(Ev.shape)
    for a in range(grid.dim):
        T += kin._central_diff(H[..., a], grid, a, "odd")
    return kin.div_tensor(T, grid)


def stress_structural(
    m: np.ndarray,
    grad_m: np.ndarray | None,
    h_eff: np.ndarray,
    params: con.MaterialParams,
) -> np.ndarray:
    """Structural stress: Maxwell/exchange part plus the magnetic couple.

    S_str = kappa mu0 (grad m (.) grad m - |grad m|^2/2 I)
            - mu0 skw(h_eff (x) m),
    where (grad m (.) grad m)_ij = d_i m_k d_j m_k; grad_m may be None when
    kappa = 0.  The couple term is the skew stress whose working against
    the spin balances the corotational transport of m in the energy identities.
    """
    outer_h_m = h_eff[..., :, None] * m[..., None, :]
    S = -params.mu0 * kin.skw(outer_h_m)
    if params.kappa != 0.0:
        gm = kin.matmat(np.swapaxes(grad_m, -1, -2), grad_m)
        trg = kin.tensor_trace(gm)
        S = S + params.kappa * params.mu0 * (gm - 0.5 * trg[..., None, None] * EYE)
    return S


# ---------------------------------------------------------------------------
# discrete operators shared by the sweep, the residual check and the audit


def _velocity_gradient(v, Ee, loads_k: LoadsSample, grid: Grid, params) -> np.ndarray:
    """Velocity gradient L of the step.

    Prescribed grad_v, or quasi-static deviatoric stress control (Jeffreys
    element: nu1 E(v) + dev S_E = sigma_applied), or the solved velocity;
    a 0D material point has no velocity gradient of its own.
    """
    if loads_k.grad_v_k is not None:
        return np.broadcast_to(loads_k.grad_v_k, grid.spatial_shape + (NCOMP, NCOMP))
    if loads_k.stress_dev_k is not None:
        S_dev = kin.dev(con.stress_elastic(Ee, params))
        return (loads_k.stress_dev_k - S_dev) / params.nu1
    if grid.dim == 0:
        return np.zeros((NCOMP, NCOMP))
    return kin.grad_vector(v, grid, kind="velocity")


def _driven(loads_k: LoadsSample) -> bool:
    """Whether L is prescribed (grad_v) or stress-controlled rather than solved."""
    return loads_k.grad_v_k is not None or loads_k.stress_dev_k is not None


class _Flow(NamedTuple):
    """The operators of one velocity iterate, formed once for every block that reads them."""

    L: np.ndarray                 # velocity gradient
    Ev: np.ndarray                # E(v) = sym L
    GE: np.ndarray | None         # grad E(v), the nu2 gradient; None where the nu2 terms vanish
    GE2: np.ndarray | None        # |grad E(v)|^2, which the hyperstress and xi read; None with GE
    advect: Callable              # the upwind transport f -> (v.grad)f


def _flow(v: np.ndarray, L: np.ndarray, grid: Grid, params) -> _Flow:
    """The _Flow of the velocity v with gradient L."""
    Ev = kin.sym(L)
    return _Flow(L, Ev, *_nu2_gradient(Ev, grid, params), kin.upwind(v, grid))


def _lagged(state_prev: FieldState, params) -> tuple:
    """(theta^{k-1}, M, b, h_c): the step's lagged temperature and the laws read at it."""
    theta = con.thermal_law_for(params).theta_of_w(state_prev.w)
    M = np.asarray(con.maxwell_viscosity(theta, params))
    return theta, M, con.buoyancy_b(theta, params), con.h_c(theta, params)


def _h_eff(m, theta, h_dem, loads_k: LoadsSample, grid: Grid, params) -> np.ndarray:
    """h_eff = h_anisotropy + h_ext + kappa Delta m + h_dem, h_dem added last."""
    h_drv = con.h_anisotropy(m, theta, params) + loads_k.h_ext_k
    if params.kappa != 0.0 and grid.dim >= 1:
        h_drv = h_drv + params.kappa * kin.laplacian(m, grid)
    return h_drv + h_dem


def _adiabatic_coupling(theta, m, r_conv, divv, params):
    """theta omega_hat'_m(m) . r_conv + (theta omega_hat(m) + phi(theta)) div v."""
    phi = con.thermal_law_for(params).phi(theta)
    return (
        theta * kin.sum_vector(con.omega_hat_m(m, params) * r_conv)
        + (theta * con.omega_hat(m, params) + phi) * divv
    )


def _stress(Ee, m, Ev, h_eff, grid: Grid, params) -> np.ndarray:
    """Stress S_E + nu1 E(v) + S_str (the hyperstress enters separately)."""
    grad_m = kin.grad_vector(m, grid) if params.kappa != 0.0 else None
    S_str = stress_structural(m, grad_m, h_eff, params)
    return con.stress_elastic(Ee, params) + params.nu1 * Ev + S_str


def _momentum_residual_field(
    v, flow: _Flow, v_prev, Ee, m, h_eff, h_dem, b_lag, loads_k: LoadsSample, grid: Grid,
    params, tau,
):
    """Residual of the discrete momentum balance at velocity v, whose operators flow holds."""
    f_mag = params.mu0 * kin.matvec(np.swapaxes(kin.grad_vector(h_dem, grid), -1, -2), m)
    return (
        params.rho * ((v - v_prev) / tau + flow.advect(v))
        + 0.5 * params.rho * kin.tensor_trace(flow.L)[..., None] * v
        - kin.div_tensor(_stress(Ee, m, flow.Ev, h_eff, grid, params), grid)
        + _hyperstress_force(flow.Ev, grid, params, flow.GE, flow.GE2)
        - f_mag
        - params.rho * loads_k.g * (1.0 - np.asarray(b_lag))[..., None]
    )


def step(
    state_prev: FieldState,
    loads_k: LoadsSample,
    dt: float,
    grid: Grid,
    params: con.MaterialParams,
    demag: bool = False,
) -> tuple[FieldState, StepReport]:
    """Advance state_prev by one fully implicit step of length dt; returns (new state, report).

    ``demag`` solves the demag potential u of each iterate's m; without it u
    and h_dem are zero.  The sweep limits and tolerances are the module
    constants _MAX_SWEEPS, _TOL_REL, _TOL_ABS and _CFL_MAX.  The step stops
    by the one rule of the module docstring: the residual gate accepts, or
    the step is rejected.  On rejection (no convergence, a converged iterate
    that fails the gate, a failed linear solve or a CFL violation) the
    previous state is returned with report.accepted = False and the reason
    in report.message (the caller halves dt).  A converged w < -_TOL_ABS
    raises ThermodynamicError, and a dt that is not > 0 NumericalError.
    """
    if not dt > 0.0:
        raise NumericalError(f"dt must be positive, got {dt}")
    thermal = con.thermal_law_for(params)
    tau = dt

    theta_prev, M_lag, b_lag, hc_lag = _lagged(state_prev, params)

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
    if demag:
        h_dem = h_dem_from_u(state_prev.u, grid)
    # the m block's shift of the lagged demag field, on the components along
    # the grid's axes; None where there is no demag field to shift
    shift = None
    if demag and grid.dim >= 1:
        shift = np.where(np.arange(NCOMP) < grid.dim, _DEMAG_SHIFT, 0.0)
    j_src = boundary_source(loads_k.j_ext_k, grid)
    m_prev_tau = state_prev.m / tau

    driven = _driven(loads_k)
    # no block reads a field that a later block of the same sweep writes,
    # so the first sweep is the fixed point (see the module docstring)
    one_pass = grid.dim == 0 and loads_k.stress_dev_k is None and w_ctrl is not None
    report = StepReport(dt=tau)
    change_prev = 0.0  # no sweep before the first, so no contraction rate
    # the operators of the velocity the momentum block linearizes about: the
    # previous state's in the first sweep, then the last sweep's iterate
    if not driven and grid.dim >= 1:
        flow = _flow(v, _velocity_gradient(v, Ee, loads_k, grid, params), grid, params)

    for it in range(_MAX_SWEEPS):
        report.iterations = it + 1
        # the effective field of the sweep's m, which the momentum block and
        # the m block's first Newton pass both read
        h_eff = _h_eff(m, theta_k, h_dem, loads_k, grid, params)
        # --- kinematic block -------------------------------------------------
        if driven:
            v_new = v
        elif grid.dim == 0:
            v_new = state_prev.v + tau * loads_k.g * (1.0 - b_lag)
        else:
            v_new, failure = _momentum_solve(
                state_prev.v, v, flow, Ee, m, h_eff, h_dem, b_lag, loads_k, grid, params, tau
            )
            report.lu_solves += 1
            if failure:
                report.message = f"momentum solve failed ({failure})"
                return state_prev, report
        failure = _cfl_failure(v_new, grid, tau)
        if failure:
            report.message = f"CFL violation: {failure} (sweep {report.iterations})"
            return state_prev, report
        L = _velocity_gradient(v_new, Ee, loads_k, grid, params)
        flow = _flow(v_new, L, grid, params)
        Ev = flow.Ev
        Wsp = kin.skw(L)
        wspin = np.asarray(Wsp[..., 1, 0])

        # --- strain block (Ee, R, Ep) ---------------------------------------
        # (1/tau) Ee + corot + (2 G_E / M) dev Ee = rhs, then R, then Ep
        lapR = (
            kin.laplacian(R, grid) if (params.varkappa != 0.0 and grid.dim >= 1) else 0.0
        )
        adv_Ee = flow.advect(Ee) if grid.dim >= 1 else 0.0
        rhs_e = (
            Ev + state_prev.Ee / tau - adv_Ee
            - params.varkappa * np.asarray(lapR) / M_lag[..., None, None]
        )
        Ee_new = _corot_solve(rhs_e, wspin, 1.0 / tau, 2.0 * params.G_E / M_lag)
        R_new = (
            2.0 * params.G_E * kin.dev(Ee_new) + params.varkappa * np.asarray(lapR)
        ) / M_lag[..., None, None]

        adv_Ep = flow.advect(Ep) if grid.dim >= 1 else 0.0
        Ep_new = _corot_solve(R_new + state_prev.Ep / tau - adv_Ep, wspin, 1.0 / tau)

        # --- magnetization block: one semismooth Newton step per pass -------
        # F(m) = (I/tau - W) m - m_prev/tau + adv_m - r(h_eff(m)) with adv_m
        # and kappa Delta m held at the iterate; J = (I/tau - W) - Dr Dh, and
        # J m_new = J m - F(m) is solved in closed form per cell; A_m holds
        # the component planes of I/tau - W
        A_m = EYE / tau - Wsp
        A_m = tuple(A_m[..., i, j].copy() for i, j in np.ndindex(NCOMP, NCOMP))
        m_it = m
        dm_prev = 0.0
        # the change test's terms of v, Ee, R and Ep, taken before the m block
        # for its forcing term (0 in a one-pass step, which solves m tight)
        change = 0.0
        if not one_pass:
            for old, new in ((v, v_new), (Ee, Ee_new), (R, R_new), (Ep, Ep_new)):
                change = max(change, _max_abs(new - old) / max(1.0, _max_abs(new)))
        eta_m = _ETA_M * (change_prev if it else change)  # the first sweep's change so far
        for _ in range(_M_PASSES):
            report.m_passes += 1
            r = con.zeta_resolvent(hc_lag, h_eff, params)
            adv_m = flow.advect(m_it) if grid.dim >= 1 else 0.0
            m_cand = _m_newton_update(m_it, h_eff, r, theta_k, A_m, m_prev_tau - adv_m + r, params,
                                      shift)
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
            m_scale = max(1.0, _max_abs(m_it))
            tol_m = _TOL_ABS + _TOL_REL * m_scale
            if (
                dm < tol_m
                or (dm < dm_prev and dm * dm < tol_m * (dm_prev - dm))
                or dm <= eta_m * m_scale
            ):
                break
            dm_prev = dm
            h_dem_it = h_dem if shift is None else h_dem - shift * (m_it - m)
            h_eff = _h_eff(m_it, theta_k, h_dem_it, loads_k, grid, params)
        else:
            report.message = (
                f"magnetization block did not converge in {_M_PASSES} passes "
                f"(last change {dm:.3e})"
            )
            return state_prev, report
        m_new = m_it

        # --- demag block -----------------------------------------------------
        if demag:
            sol = solve_demag(m_new, grid)
            u_new, h_dem = sol.u, sol.h_dem
        else:
            u_new = np.zeros_like(state_prev.u)
            h_dem = np.zeros_like(m_new)

        # --- enthalpy block ---------------------------------------------------
        if w_ctrl is not None:
            w_new = w_ctrl.copy()
        else:
            xi = _xi_field(Ev, R_new, r, hc_lag, M_lag, grid, params, flow.GE2)
            r_conv = (m_new - state_prev.m) / tau + (
                flow.advect(m_new) if grid.dim >= 1 else 0.0
            )
            adiab = _adiabatic_coupling(theta_k, m_new, r_conv, kin.tensor_trace(L), params)
            if grid.dim == 0:
                w_new = state_prev.w + tau * (xi + adiab + j_src)
            else:
                w_new, failure = _heat_solve(state_prev.w, w, v_new, xi, adiab, j_src, grid,
                                             params, tau)
                report.lu_solves += 1
                if failure:
                    report.message = f"heat solve failed ({failure})"
                    return state_prev, report
        theta_new = thermal.theta_of_w(np.maximum(w_new, 0.0))

        # --- convergence ------------------------------------------------------
        if not one_pass:
            for old, new in ((m, m_new), (w, w_new)):
                change = max(change, _max_abs(new - old) / max(1.0, _max_abs(new)))
        report.change = change
        v, Ee, R, Ep, m, u, w = v_new, Ee_new, R_new, Ep_new, m_new, u_new, w_new
        theta_k = theta_new
        converged = change < _TOL_REL
        if converged and float(np.min(w)) < -_TOL_ABS:
            raise ThermodynamicError(f"enthalpy became negative: min w = {float(np.min(w)):.3e}")
        # the one gate, for a converged iterate or one whose error at the
        # contraction rate q = change / change_prev, about q change / (1 - q),
        # is below the tolerance; where it fails, a converged iterate rejects
        # the step and an estimated one sweeps on
        if converged or (
            change < change_prev
            and change * change < _TOL_REL * (change_prev - change)
            and float(np.min(w)) >= -_TOL_ABS
        ):
            state_new = _gate(state_prev, (v, Ee, Ep, m, u, w), loads_k, tau, grid, params,
                              demag, report, flow if loads_k.stress_dev_k is None else None,
                              h_dem)
            if report.accepted:
                return state_new, report
            if converged:
                report.message = "converged iterate fails residual check: " + ", ".join(
                    f"{k}={res:.2e}/{scale:.2e}" for k, (res, scale) in report.residuals.items()
                )
                return state_prev, report
        change_prev = change
    report.message = f"no convergence after {report.iterations} sweeps (change {change:.3e})"
    return state_prev, report


def _gate(
    state_prev: FieldState, iterate: tuple, loads_k: LoadsSample, dt: float, grid: Grid,
    params: con.MaterialParams, demag: bool, report: StepReport, flow: _Flow | None,
    h_dem: np.ndarray,
) -> FieldState:
    """The state of the sweep iterate (v, Ee, Ep, m, u, w), checked by the residual gate.

    Sets report.terms, .residuals and .accepted (every residual within its
    gate).  flow is the _Flow of the state's velocity and L, or None, where
    step_terms forms it; h_dem is the demag field of u, which the sweep's
    demag block returned.  min w >= -_TOL_ABS is the caller's to check; w is
    clipped at 0.  The iterate's arrays are not written.
    """
    v, Ee, Ep, m, u, w = iterate
    state_new = FieldState(
        v=np.array(v, dtype=np.float64).reshape(state_prev.v.shape),
        Ee=kin.sym(Ee),
        Ep=Ep,
        m=m,
        u=u,
        w=np.maximum(w, 0.0),
        t=state_prev.t + dt,
    )
    report.terms = step_terms(state_prev, state_new, loads_k, dt, grid, params, flow, h_dem)
    report.residuals = residuals(state_prev, state_new, loads_k, dt, grid, params, demag,
                                 report.terms)
    report.accepted = all(
        _within_tolerance(res, scale) for res, scale in report.residuals.values()
    )
    return state_new


def _xi_field(Ev, R, r, hc_lag, M_lag, grid: Grid, params: con.MaterialParams, GE2=None):
    """Dissipation heat source xi(E(v), R, mdot) >= 0 with M and h_c lagged at theta^{k-1}.

    GE2 is |grad E(v)|^2, the _Flow's, read where the nu2 term does not vanish.
    """
    xi = params.nu1 * kin.sum_matrix(Ev * Ev)
    xi = xi + M_lag * kin.sum_matrix(R * R)
    xi = xi + params.mu0 * con.zeta_diss(hc_lag, r, params)
    if params.nu2 != 0.0 and grid.dim >= 1:
        xi = xi + params.nu2 * GE2 ** (params.p / 2.0)
    if params.varkappa != 0.0 and grid.dim >= 1:
        # int varkappa dirichlet_density(R) = -int R : varkappa laplacian(R), the flow rule's term
        xi = xi + params.varkappa * kin.dirichlet_density(R, grid)
    return xi


def _checked_solve(solve, rhs: np.ndarray, *args) -> tuple:
    """solve(rhs, *args), shaped like rhs, and why the solve failed ("" on success).

    An rhs whose 2-norm is not finite (NaN, inf, or so large that the norm
    overflows) fails without a solve, and a non-finite solution fails too.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(rhs)
    if not math.isfinite(norm):
        return rhs, "non-finite norm of the right-hand side"
    x = solve(rhs, *args)
    if not np.all(np.isfinite(x)):
        return x, "non-finite solution"
    return x, ""


def _trig(x: np.ndarray, dim: int, inverse: bool = False) -> np.ndarray:
    """Orthonormal DCT-II along each of the first dim axes, or its inverse."""
    transform = scipy.fft.idct if inverse else scipy.fft.dct
    for axis in range(dim):
        x = transform(x, type=2, axis=axis, norm="ortho")
    return x


@functools.lru_cache(maxsize=8)
def _momentum_spectrum(grid: Grid, rho_tau: float, nu1: float) -> tuple:
    """(sign, slots, s, c per component, c + nu1 |s|^2 / 2) of _momentum_inverse; read-only.

    sign[..., i] is (-1)^j along axis i, slots[i] v_i's modes in the wavenumber
    lattice, reversed along axis i; c = rho_tau + nu1 |s|^2 / 2.  One entry
    per grid and tau, so a fixed-dt run forms it once.
    """
    s = np.meshgrid(*(np.sin(np.pi * np.arange(n + 1) / n) / h
                      for n, h in zip(grid.cells, grid.spacing)), indexing="ij", sparse=True)
    sign = np.ones(grid.cells + (NCOMP,))
    for a in range(grid.dim):
        np.moveaxis(sign, a, 0)[1::2, ..., a] = -1.0
    slots = tuple(tuple(slice(None, 0, -1) if a == i else slice(-1) for a in range(grid.dim))
                  for i in range(NCOMP))
    half_s2 = 0.5 * nu1 * sum(sa * sa for sa in s)
    c = rho_tau + half_s2
    c_slots = tuple(np.ascontiguousarray(c[slot]) for slot in slots)
    denominator = c + half_s2
    for x in (sign, *s, *c_slots, denominator):
        x.flags.writeable = False
    return sign, slots, tuple(s), c_slots, denominator


def _momentum_inverse(rhs: np.ndarray, grid: Grid, rho_tau: float, nu1: float) -> np.ndarray:
    """v with rho_tau v - div(nu1 E(v)) = rhs, E(v) = sym grad_vector(v, kind='velocity').

    Under the wall rule v_i is a sum of DST-II modes along its own axis i
    and DCT-II modes across it.  A central difference maps mode p of one
    kind to mode p of the other times s = sin(pi p / n) / h, so each
    wavenumber pair p is one 2x2 solve of c I + (nu1/2) s s^T with
    c = rho_tau + nu1 |s|^2 / 2, by Sherman-Morrison.  DST-II index j is
    p = j + 1 and DCT-II index j is p = j; at p_a = 0 or n_a one component
    has no mode, and s_a = 0 (to rounding at n_a) leaves the other alone.
    The DST-II of x is the DCT-II of (-1)^j x read in reverse, and the
    inverse DST-II of X is (-1)^j times the inverse DCT-II of X reversed,
    so both components take one DCT per axis each way.  The spectra are
    _momentum_spectrum's, cached per grid and tau.
    """
    sign, slots, s, c_slots, denominator = _momentum_spectrum(grid, rho_tau, nu1)
    modes = _trig(rhs * sign, grid.dim)
    coef = np.zeros(tuple(n + 1 for n in grid.cells) + (NCOMP,))
    for i in range(NCOMP):
        coef[slots[i] + (i,)] = modes[..., i]
    g = 0.5 * nu1 * sum(sa * coef[..., a] for a, sa in enumerate(s)) / denominator
    for a, sa in enumerate(s):
        coef[..., a] -= sa * g
    for i in range(NCOMP):
        modes[..., i] = coef[slots[i] + (i,)] / c_slots[i]
    return _trig(modes, grid.dim, inverse=True) * sign


@functools.lru_cache(maxsize=8)
def _heat_spectrum(grid: Grid, tau: float, diffusivity: float) -> np.ndarray:
    """1/tau - diffusivity lambda_k on the DCT-II modes k of _heat_inverse; read-only.

    Mode k on an axis of n cells of width h has the Laplacian eigenvalue
    -(2 sin(pi k / 2n) / h)^2, and lambda_k sums them over the axes.  One
    entry per grid and tau, so a fixed-dt run forms it once.
    """
    k2 = np.meshgrid(*((2.0 * np.sin(0.5 * np.pi * np.arange(n) / n) / h) ** 2
                       for n, h in zip(grid.cells, grid.spacing)), indexing="ij", sparse=True)
    spectrum = 1.0 / tau + diffusivity * sum(k2)
    spectrum.flags.writeable = False
    return spectrum


def _heat_inverse(rhs: np.ndarray, grid: Grid, tau: float, diffusivity: float) -> np.ndarray:
    """w with w / tau - diffusivity Delta w = rhs, Delta the Neumann 5-point Laplacian.

    The DCT-II diagonalizes Delta; its spectrum is _heat_spectrum's, cached
    per grid and tau.
    """
    return _trig(_trig(rhs, grid.dim) / _heat_spectrum(grid, tau, diffusivity), grid.dim,
                 inverse=True)


def _momentum_solve(
    v_prev, v_cur, flow: _Flow, Ee, m, h_eff, h_dem, b_lag, loads_k: LoadsSample,
    grid: Grid, params: con.MaterialParams, tau: float,
):
    """Implicit Stokes-like solve with the remaining momentum terms lagged.

    The operator A v = rho v / tau - div(nu1 E(v)) is implicit; with the rest
    of the balance held at v_cur, v = v_cur - A^{-1} res(v_cur).  flow holds
    the operators of v_cur, and h_eff is the effective field of m.
    """
    res = _momentum_residual_field(
        v_cur, flow, v_prev, Ee, m, h_eff, h_dem, b_lag, loads_k, grid, params, tau
    )
    dv, failure = _checked_solve(_momentum_inverse, res, grid, params.rho / tau, params.nu1)
    return v_cur - dv, failure


def _heat_solve(w_prev, w_cur, v_new, xi, adiab, j_src, grid: Grid, params, tau):
    """Implicit conduction solve; advection and sources at the current sweep.

    The thermal law is linear (theta = w / c_v), so the Fourier term is
    implicit in w.
    """
    adv = kin.advect_scalar(w_cur, v_new, grid)
    rhs = w_prev / tau - adv + xi + adiab + j_src
    return _checked_solve(_heat_inverse, rhs, grid, tau, params.K_cond / params.c_v)


def _potential_residual(
    u: np.ndarray, m: np.ndarray, grid: Grid, demag: bool
) -> tuple[float, float]:
    """(residual, scale) of the 5-point Poisson equation L u = div_c(chi m) on Omega.

    The scale is the largest diagonal term of the stencil.  Without demag
    the equation is u = 0.
    """
    if demag:
        diag = sum(2.0 / (h * h) for h in grid.spacing)
        return poisson_residual(u, m, grid), max(1.0, diag * _max_abs(u))
    return _max_abs(u), 1.0


def _within_tolerance(res: float, scale: float) -> bool:
    """The residual gate of one block: res <= _TOL_ABS + 100 _TOL_REL scale."""
    return res <= _TOL_ABS + 100.0 * _TOL_REL * scale


@dataclass(frozen=True)
class StepTerms:
    """The discrete terms of a step that the residual check and the audit read."""

    theta_new: np.ndarray         # theta of state_new
    M_lag: np.ndarray             # Maxwell viscosity M(theta^{k-1}), theta^{k-1} of state_prev
    b_lag: np.ndarray             # buoyancy factor b(theta^{k-1})
    hc_lag: np.ndarray            # coercivity h_c(theta^{k-1})
    h_dem: np.ndarray             # demag field of state_new's u
    h_eff: np.ndarray             # effective field at state_new
    flow: _Flow                   # L, E(v), grad E(v) and the transport of state_new's v
    driven: bool                  # L prescribed (grad_v) or stress-controlled
    R: np.ndarray                 # ZJ rate of Ep
    r: np.ndarray                 # ZJ rate of m
    r_conv: np.ndarray            # convective rate of m
    xi: np.ndarray                # dissipation heat source
    adiab: np.ndarray             # adiabatic coupling
    j_src: np.ndarray             # boundary heat source
    heat_res: np.ndarray          # enthalpy residual; under theta control, the control flux
    p_drive: float                # int S:L on a driven step, else 0


def step_terms(
    state_prev: FieldState, state_new: FieldState, loads_k: LoadsSample, dt: float,
    grid: Grid, params: con.MaterialParams, flow: _Flow | None = None,
    h_dem: np.ndarray | None = None,
) -> StepTerms:
    """The terms of the step state_prev -> state_new, as the stepper defines them.

    flow is the _Flow of state_new's velocity and the step's L, and h_dem
    h_dem_from_u(state_new.u), where the caller has formed them; where one
    is None, the record forms its own.
    """
    _, M_lag, b_lag, hc_lag = _lagged(state_prev, params)
    theta_new = con.thermal_law_for(params).theta_of_w(state_new.w)
    v, m, w = state_new.v, state_new.m, state_new.w
    driven = _driven(loads_k)
    if flow is None:
        flow = _flow(v, _velocity_gradient(v, state_new.Ee, loads_k, grid, params), grid, params)
    L, Ev = flow.L, flow.Ev
    R = (state_new.Ep - state_prev.Ep) / dt + kin.bzj_tensor(v, L, state_new.Ep, grid,
                                                             flow.advect)
    r = (m - state_prev.m) / dt + kin.bzj_vector(v, L, m, grid, flow.advect)
    r_conv = r + kin.matvec(kin.skw(L), m)
    xi = _xi_field(Ev, R, r, hc_lag, M_lag, grid, params, flow.GE2)
    adiab = _adiabatic_coupling(theta_new, m, r_conv, kin.tensor_trace(L), params)
    j_src = boundary_source(loads_k.j_ext_k, grid)
    adv_w = kin.advect_scalar(w, v, grid) if grid.dim >= 1 else 0.0
    cond = params.K_cond * kin.laplacian(np.asarray(theta_new), grid) if grid.dim >= 1 else 0.0
    heat_res = (w - state_prev.w) / dt + adv_w - cond - xi - adiab - j_src
    if h_dem is None:
        h_dem = h_dem_from_u(state_new.u, grid)
    h_eff = _h_eff(m, theta_new, h_dem, loads_k, grid, params)
    p_drive = (grid.integrate(kin.ddot(_stress(state_new.Ee, m, Ev, h_eff, grid, params), L))
               if driven else 0.0)
    return StepTerms(
        theta_new, M_lag, b_lag, hc_lag, h_dem, h_eff, flow, driven,
        R, r, r_conv, xi, adiab, j_src, heat_res, p_drive,
    )


def residuals(
    state_prev: FieldState, state_new: FieldState, loads_k: LoadsSample, dt: float,
    grid: Grid, params: con.MaterialParams, demag: bool, terms: StepTerms,
) -> dict:
    """Max-norm residuals of the six discrete equations of the step, with scales.

    ``terms`` is step_terms of the same step.  ``demag`` is the step's flag.
    Returns {name: (residual, scale)}; each residual vanishes iff the
    corresponding discrete equation holds exactly on the grid.
    """
    tau = dt
    v, Ee, m = state_new.v, state_new.Ee, state_new.m
    M_lag, R, r, h_dem, h_eff = terms.M_lag, terms.R, terms.r, terms.h_dem, terms.h_eff
    flow = terms.flow

    # (b) strain split
    res_b = (
        (Ee - state_prev.Ee) / tau + kin.bzj_tensor(v, flow.L, Ee, grid, flow.advect) + R - flow.Ev
    )
    scale_b = max(1.0, _max_abs(Ee)) / tau

    # (c) inelastic flow rule M(theta^{k-1}) R = dev S_E + varkappa lap R
    lapR = kin.laplacian(R, grid) if (params.varkappa != 0.0 and grid.dim >= 1) else 0.0
    devS = kin.dev(con.stress_elastic(Ee, params))
    res_c = M_lag[..., None, None] * R - devS - params.varkappa * np.asarray(lapR)
    scale_c = max(_max_abs(devS), float(M_lag.max()) * _max_abs(R), 1e-30)

    # (d) magnetization inclusion
    rmag = np.hypot(r[..., 0], r[..., 1])
    H = np.hypot(h_eff[..., 0], h_eff[..., 1])
    # rates at the roundoff floor of the m update count as sticking
    rate_floor = 64.0 * np.finfo(np.float64).eps * max(1.0, _max_abs(m)) / tau
    moving = rmag > rate_floor
    zp = con.zeta_prime(terms.hc_lag, np.maximum(rmag, 1e-300), params)
    viol = h_eff - (zp / np.maximum(rmag, 1e-300))[..., None] * r
    viol_moving = np.hypot(viol[..., 0], viol[..., 1])
    viol_stuck = np.maximum(H - terms.hc_lag, 0.0)
    res_d_field = np.where(moving, viol_moving, viol_stuck)
    scale_d = max(1.0, float(H.max()))

    # (e) demag potential
    res_e, scale_e = _potential_residual(state_new.u, m, grid, demag)

    # (f) enthalpy
    if loads_k.theta_k is not None:
        res_f = _max_abs(state_new.w - con.thermal_law_for(params).w_of_theta(loads_k.theta_k))
        scale_f = max(1.0, _max_abs(state_new.w))
    else:
        res_f = _max_abs(terms.heat_res)
        scale_f = max(1.0, _max_abs(state_new.w)) / tau

    # (a) momentum
    res_a, scale_a = 0.0, 1.0  # kinematics prescribed; momentum not solved
    if not terms.driven:
        res_a_field = _momentum_residual_field(
            v, flow, state_prev.v, Ee, m, h_eff, h_dem,
            terms.b_lag, loads_k, grid, params, tau,
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
    "StepReport",
    "StepTerms",
    "step",
    "step_terms",
    "residuals",
    "stress_structural",
    "boundary_source",
]
