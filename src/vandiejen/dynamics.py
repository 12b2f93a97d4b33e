"""Hamiltonian flow, propagated two independent ways.

The runge-kutta route integrates Hamilton's equations with DOP853, the
explicit 8(5,3) Runge-Kutta pair of Dormand and Prince (Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.10), which meets the tolerance in about half
the vector-field evaluations of a 5(4) pair.  It is written here in numpy, so
that the package needs no scipy; it takes the steps of scipy's
solve_ivp(method="DOP853") and reads the requested times off the same dense
output, which the tests check against scipy.  The field is one
_kernels.field_kernel, built once per trajectory: each call writes the field
at a flat state y = (xi, eta) in place, straight into a row of the stage
table, so a step allocates nothing, and a stage makes 18 numpy calls with
little Python work around them.

The projection route reads the flow off the spectrum of L that the spectral
map takes, L = Y e^{2 Theta_hat} Y* with Y C-paired (duality._spectrum).  As
C L C = L^{-1}, B = L - L^{-1} = Y diag(beta) Y* with beta = 2 sinh 2 Theta_hat,
the action velocities of H = sum cosh 2 theta_hat.  The flow matrix
e^{2 Lam} e^{tB} is similar to G G* with G = e^{Lam} Y e^{t beta/2}, and the
positions at time t are the logs of the n largest singular values of G.
G is diagonal x unitary x diagonal, so its singular values are determined to
high relative accuracy however graded its rows and columns are (Demmel et al.,
LAA 1999; Drmac & Veselic, SIMAX 2008).  One double-precision SVD realizes that
accuracy when the rows of G are sorted by decreasing Lam, its columns by
decreasing t beta, and it is scaled by its largest entry exponent.  The
rapidities come in closed form from the right singular vectors W: since
d(G G*)/dt = G diag(beta) G*, xi_dot_a = 1/2 sum_j beta_j |W_ja|^2.

The projection route takes a phase point or a stack of them (see PhasePoint):
its spectrum is one stacked eigensolve, and one stacked SVD flows every unit
of the stack to a finite time of its own, so a time grid takes one SVD.  A
step fails only numerically, by the exponent range cap, lost rank or a
collision, and its one failure record is a mask over the units with the
reason of each: the flow and brackets batteries report the first failing
unit's reason, and projection_flow raises it by the rule of
phase_space.raise_first.  A non-finite time is rejected before any step.
The Runge-Kutta route and the vector field take a single point.  Both routes
return the states they reach and nothing else; flow_residuals, the flow
command's battery, reports them over a time grid with their energies.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _kernels
from .duality import _descending_rows, _full_angles, _spectrum
from .lax import LaxBundle, energy, lax_matrix
from .phase_space import Coupling, PhasePoint, VandiejenError, raise_first, require_valid

RK_REL_TOL = 1e-10
RK_ABS_TOL = 1e-12
# Largest max - min of the entry exponents Lam_k + t beta_j / 2 of G: after
# scaling by the largest, the smallest entries stay inside the double range.
EXPONENT_RANGE_CAP = 700.0
FLOW_GAP_TOL = 1e-10  # smallest relative gap between flowed eigenvalues of G G*


class DynamicsError(VandiejenError):
    pass


def vector_field(p: PhasePoint, g: Coupling):
    """(xi_dot, eta_dot) of the Hamiltonian flow at p, from a field_kernel built for it."""
    p.require_one()
    require_valid(p)
    g.require_regular()
    n = p.n
    out = np.empty(2 * n)
    _kernels.field_kernel(n, g.mu, g.nu)(p.as_vector(), out)
    return out[:n], out[n:]


# The DOP853 tableau, as in the authors' dop853.f and in scipy's DOP853: stages
# 0..11, then row 12 of A, the 8th-order weights B, whose stage is the field at
# the new state, then the three extra stages 13..15 of the dense output.  The
# field is autonomous, so the stage times are not needed.
_A = np.zeros((16, 16))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2,
]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3,
]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1,
]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138,
]
_B = _A[12, :12]
# The 5th- and 3rd-order error estimates, over stages 0..12
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
_E3 = np.zeros(13)
_E3[:12] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
# The last four of the seven dense-output coefficients, over stages 0..15
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [
        -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
        0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
        -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1,
    ],
    [
        0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
        0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
        -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
        -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
        0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
        -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2,
    ],
    [
        0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
        -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
        -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
        -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
        0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2,
    ],
    [
        -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
        -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
        0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
        0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
        -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
        -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3,
    ],
]
# Step-size control: an accepted step's error norm e sets the next step to
# h * SAFETY * e^(-1/8), the factor held to [MIN_FACTOR, MAX_FACTOR]
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0


def _rms(x: np.ndarray) -> float:
    """np.linalg.norm(x) / sqrt(x.size): the norm of a vector is sqrt(x.dot(x))."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _dop853(fun, y0: np.ndarray, t_samples: np.ndarray, rtol: float, atol: float):
    """States at t_samples of y' = f(y), y(0) = y0, as rows, in one sweep
    from t = 0 to t_samples[-1]; the samples are nonzero, of one sign and
    strictly increasing in |t|.  fun(y, out) writes f(y) into out.

    This is scipy's solve_ivp(method="DOP853", t_eval=t_samples) step for step:
    its initial step (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4), its
    RMS error norm of the 5th-order estimate weighted against the 3rd-order one
    (sec. II.10), its step control, and each sample read off the dense output
    of the step that reaches it.  The one difference: a nan step counts as too
    small, where solve_ivp loops for ever on a field that is nan at y0.

    Each stage is written straight into its row of K, whose row 0 holds the
    field at the step's start and row 12 the field at its end.  The stages
    run over (product, weights, state, row) tuples built once per sweep, one
    loop for a step's 12 and one for the dense output's 3, with every ufunc
    bound and its out passed by position (but for np.maximum, which takes out
    by keyword alone), and h, rtol and atol reach the ufuncs as 0-d arrays;
    the step control runs on Python floats.  A stage makes 18 numpy calls, 3
    for its sum and 15 in the field, and a step allocates nothing."""
    t_end = float(t_samples[-1])
    direction = math.copysign(1.0, t_end)
    t, dim = 0.0, len(y0)
    K = np.empty((16, dim))
    y, y_new, stage, work = np.empty((4, dim))
    # (stage sum, its weights, the state it makes, the row f(state) goes to);
    # A[12, :12] = B, so stage 12 is the step's end and f there
    stages = [(K[:s].T.dot, _A[s, :s], y_new if s == 12 else stage, K[s]) for s in range(16)]
    step_stages, dense_stages = stages[1:13], stages[13:]
    error_sum = K[:13].T.dot
    y[:] = y0
    f, f_new = K[0], K[12]
    fun(y, f)

    # initial step
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end))
    fun(y + h0 * direction * f, K[1])
    d2 = _rms((K[1] - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, abs(t_end))

    absolute, add, divide, maximum, multiply = np.abs, np.add, np.divide, np.maximum, np.multiply
    # a ufunc takes a 0-d array faster than a Python float
    step, rtol, atol = np.array(0.0), np.array(rtol), np.array(atol)
    norm_sq = work.dot

    def run(block: list) -> None:
        """Each stage's state y + (K[:s].T A[s, :s]) h, and K[s] = f(state)."""
        for stage_sum, a, state, row in block:
            stage_sum(a, work)
            multiply(work, step, work)
            add(y, work, state)
            fun(state, row)

    def error_sq(weights: np.ndarray) -> float:
        """The squared norm of (K[:13].T weights) / scale."""
        error_sum(weights, work)
        divide(work, scale, work)
        return math.sqrt(norm_sq(work)) ** 2

    out = np.empty((len(t_samples), dim))
    ahead = (direction * t_samples).tolist()  # |t| of each sample, increasing
    done = 0
    while done < len(t_samples):
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise DynamicsError(
                    "integrator failed: Required step size is less than spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            step[()] = h
            run(step_stages)

            absolute(y, scale)
            absolute(y_new, work)
            maximum(scale, work, out=scale)
            multiply(scale, rtol, scale)
            add(atol, scale, scale)
            err5_sq, err3_sq = error_sq(_E5), error_sq(_E3)
            denominator = math.sqrt((err5_sq + 0.01 * err3_sq) * dim)
            if err5_sq == 0 and err3_sq == 0:
                error_norm = 0.0
            elif denominator == 0:
                # 0.01 * err3_sq underflowed: scipy's numpy scalars read 0 / 0
                # as nan, which rejects the step and shrinks it by MIN_FACTOR
                error_norm = math.nan
            else:
                error_norm = h_abs * err5_sq / denominator
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        # the samples this step reaches, from its dense output
        reached = done
        while reached < len(ahead) and ahead[reached] <= direction * t_new:
            reached += 1
        if reached > done:
            run(dense_stages)
            delta_y = y_new - y
            F = [
                delta_y,
                h * f - delta_y,
                2 * delta_y - h * (f_new + f),
                *(h * np.dot(_D, K)),
            ]
            x = ((t_samples[done:reached] - t) / h)[:, None]
            z = np.zeros((reached - done, dim))
            for i, term in enumerate(reversed(F)):
                z += term
                z *= x if i % 2 == 0 else 1 - x
            out[done:reached] = z + y
            done = reached
        t = t_new
        y[:] = y_new
        f[:] = f_new
    return out


def _time_grid(t_values) -> np.ndarray:
    """t_values as a 1-d float array; DynamicsError if a time is not finite."""
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    if not np.all(np.isfinite(t_values)):
        raise DynamicsError("non-finite time grid")
    return t_values


def rk_flow(p: PhasePoint, g: Coupling, t_values) -> PhasePoint:
    """Adaptive DOP853 propagation: the states at the requested times as one
    PhasePoint stack of shape (T, n), row k at t_values[k] (the order kept,
    repeats allowed, p at t = 0), with one field kernel for the whole
    trajectory."""
    t_values = _time_grid(t_values)
    p.require_one()
    require_valid(p)
    g.require_regular()
    field = _kernels.field_kernel(p.n, g.mu, g.nu)

    states = np.empty((len(t_values), 2 * p.n))
    states[t_values == 0] = p.as_vector()
    # One sweep per sign over the unique nonzero |t|
    for sign in (1.0, -1.0):
        chosen = sign * t_values > 0
        ts, row = np.unique(sign * t_values[chosen], return_inverse=True)
        if len(ts) == 0:
            continue
        # A trial stage can reach |eta| past ~710, where sinh/cosh in the field
        # overflow; the field and the error estimate then turn inf or nan, and
        # the step-size control rejects the stage.  That is expected and not
        # reported; an accepted non-finite state is caught below.
        with np.errstate(over="ignore", invalid="ignore"):
            swept = _dop853(field, p.as_vector(), sign * ts, RK_REL_TOL, RK_ABS_TOL)
        if not np.all(np.isfinite(swept)):
            raise DynamicsError("integrator returned a non-finite state")
        states[chosen] = swept[row]
    return PhasePoint.from_vector(states)


def _flow_units(
    bundle: LaxBundle, theta_hat: np.ndarray, basis: np.ndarray, t
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[int], str]]:
    """The flow of each unit of a stack to a finite time of its own, in one
    stacked SVD of G.  The units are the leading axes of the spectrum
    (theta_hat, basis) of _spectrum, those of the bundle, broadcast against t.

    Returns (xi_t, eta_t, failed, reason): the states with the units' axes,
    the mask of the units that fail a check, flat over the units in C order,
    and reason(k), the message of the first check unit k fails, in the order
    range cap, lost rank, collision.  A failed unit has a nan state.  Every
    unit goes through the SVD: one over the range cap with its column
    exponents zeroed, a finite stand-in factor."""
    lam, g = bundle.lam, bundle.coupling
    n = theta_hat.shape[-1]
    spectra = np.arange(theta_hat[..., 0].size).reshape(theta_hat.shape[:-1])
    t = np.asarray(t, dtype=float)
    # each unit's spectrum and time, by assignment into the broadcast shape
    # (np.broadcast_arrays costs several times as much on these small stacks)
    shape = np.broadcast(spectra, t).shape
    units, times = np.empty(shape, dtype=np.intp), np.empty(shape)
    units[...], times[...] = spectra, t
    spectra, times = units.reshape(-1), times.reshape(-1)
    # beta by column
    velocities = 2.0 * np.sinh(2.0 * _full_angles(theta_hat.reshape(-1, n)))[spectra]
    rows = _descending_rows(n)
    row_exp = lam.reshape(-1, 2 * n)[spectra[:, None], rows]
    t = times[:, None]
    with np.errstate(over="ignore"):  # past the double range: an inf range, over the cap
        cols = np.argsort(-t * velocities, axis=-1, kind="stable")
        beta = velocities[np.arange(len(times))[:, None], cols]
        col_exp = 0.5 * t * beta
        exp_range = row_exp[:, 0] - row_exp[:, -1] + col_exp[:, 0] - col_exp[:, -1]
    capped = exp_range > EXPONENT_RANGE_CAP
    col_exp[capped] = 0.0
    factor = (
        np.exp(row_exp - row_exp[:, :1])[:, :, None]
        * basis.reshape(-1, 2 * n, 2 * n)[spectra[:, None, None], rows[:, None], cols[:, None, :]]
        * np.exp(col_exp - col_exp[:, :1])[:, None, :]
    )
    _, sigma, wh = np.linalg.svd(factor)
    top = sigma[:, :n]
    lost = top[:, -1] <= 0
    top[lost] = 1.0  # a placeholder for the log: these units fail
    xi_t = np.log(top) + row_exp[:, :1] + col_exp[:, :1]
    # min over a of (w_a - w_{a+1}) / w_a for the eigenvalues w = sigma^2 of G G*,
    # which falls as the largest step of xi_t rises; 1 at n = 1, +0 (not -0) at a tie
    gap = 0.0 - np.expm1(2.0 * (xi_t[:, 1:] - xi_t[:, :-1]).max(axis=-1, initial=-np.inf))
    collided = gap < FLOW_GAP_TOL
    failed = capped | lost | collided
    xi_t[failed] = np.nan  # before u, which has no value where positions coincide
    xi_dot = 0.5 * (np.abs(wh[:, :n]) ** 2 @ beta[:, :, None])[..., 0]
    eta_t = np.arcsinh(xi_dot / _kernels.u_coeffs(xi_t, g.mu, g.nu))

    def reason(k: int) -> str:
        at = f"at t={float(times[k])}"
        if capped[k]:
            return f"flow exponent range {exp_range[k]:.4g} exceeds the double range cap {at}"
        if lost[k]:
            return f"flow factor lost rank (roundoff) {at}"
        return f"eigenvalue collision along the flow: relative gap {gap[k]:.3e}"

    return xi_t.reshape(shape + (n,)), eta_t.reshape(shape + (n,)), failed, reason


def projection_flow(p: PhasePoint, g: Coupling, t: float) -> PhasePoint:
    """Exact propagation through the spectrum of the matrix flow to a finite
    time t.  A failing unit of _flow_units raises by phase_space.raise_first:
    the first one, for the first check it fails."""
    t = float(t)
    if not math.isfinite(t):
        raise DynamicsError(f"non-finite time {t}")
    bundle = lax_matrix(p, g)
    xi_t, eta_t, failed, reason = _flow_units(bundle, *_spectrum(bundle), t)
    raise_first(failed, DynamicsError, lambda i: reason(*i))
    return PhasePoint(xi_t, eta_t)


def flow_residuals(t_values, p: PhasePoint, g: Coupling, method: str) -> dict:
    """The flow command's battery: one point p over a time grid by `method`
    ("projection", "runge-kutta" or "both"), one array per column over the times:
    t, lambda_a and theta_a (xi and eta), energy, propagator_gap under "both"
    (max |projection - RK|) and passed.  The projection takes one spectrum and one
    stacked SVD, and reads each time's failure off the mask of _flow_units: its
    row does not pass and holds RK's state under "both" (propagator_gap inf), else
    nan; "error" names the failed times and the first one's reason, or is None.
    A non-finite time, for every method, or another method raises DynamicsError."""
    if method not in ("projection", "runge-kutta", "both"):
        raise DynamicsError(f"unknown method {method!r}")
    p.require_one()
    t_values = _time_grid(t_values)
    states = np.full((len(t_values), 2 * p.n), np.nan)
    failed, error, gap = np.zeros(len(t_values), dtype=bool), None, {}
    if method != "runge-kutta":
        bundle = lax_matrix(p, g)
        moving = t_values != 0.0
        xi_t, eta_t, bad, reason = _flow_units(bundle, *_spectrum(bundle), t_values[moving])
        states[~moving] = p.as_vector()
        states[moving] = np.concatenate([xi_t, eta_t], axis=-1)
        failed[moving] = bad
        if bad.any():
            times = ",".join(format(t, "g") for t in t_values[failed])
            error = f"projection step failed at t={times}: {reason(int(np.argmax(bad)))}"
    if method != "projection":
        rk = rk_flow(p, g, t_values).as_vector()
        if method == "both":
            gap["propagator_gap"] = np.where(failed, np.inf, np.abs(states - rk).max(axis=-1))
        states = rk if method == "runge-kutta" else np.where(failed[:, None], rk, states)
    energies = np.full(len(t_values), np.nan)
    known = ~np.isnan(states[:, 0])
    if known.any():
        # RK has no coordinate cap: past ~355 sinh of a position sum overflows
        # in the kernels, where the q term is 0, its limit
        with np.errstate(over="ignore"):
            energies[known] = energy(PhasePoint.from_vector(states[known]), g)
    coords = [f"{x}_{a + 1}" for x in ("lambda", "theta") for a in range(p.n)]
    return {"t": t_values, **dict(zip(coords, states.T)), "energy": energies, **gap,
            "passed": ~failed, "error": error}
