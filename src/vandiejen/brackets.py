"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-1 flow
preserves it.

The battery row takes a phase point or a stack of them (see PhasePoint) and
returns one array per column.  Its Jacobians evaluate their map once, on the
central-difference stencils of all points as one flat stack of 4n points each:
the Lax matrices, their spectral images and their time-1 flows come from one
stacked pass, so each eigensolve or SVD is one numpy call.  Each stencil
point's values are bit-for-bit those of that point alone.  A stencil point
that fails a spectral check raises by the rule of phase_space.raise_first; one
whose time-1 flow fails a check of dynamics._flow_units has a nan flow, so its
point keeps its spectral columns, reads nan flow_symplectic and fails, and the
battery's "error" names the first such stencil point's check and the point
whose stencil it is.  poisson_brackets takes a map of a stack and a point or
a stack in the same way.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .duality import dual_frame
from .dynamics import _first_failure, _flow_units
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, VandiejenError, require_valid

DEFAULT_STEP = 1e-5
INTERIOR_FACTOR = 10.0


class BracketError(VandiejenError):
    pass


def omega_matrix(n: int) -> np.ndarray:
    """The canonical Poisson matrix [[0, I], [-I, 0]] of size 2n."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:] = np.eye(n)
    om[n:, :n] = -np.eye(n)
    return om


def _require_stencil(p: PhasePoint, step: float):
    """The step must be finite and positive, and the central stencils of that
    step must stay inside the valid region around each point of p."""
    if not (np.isfinite(step) and step > 0):
        raise BracketError(f"step must be finite and positive, got {step}")
    margin = INTERIOR_FACTOR * step
    try:
        require_valid(p, gap=margin)
    except PhaseSpaceError:
        raise BracketError(
            f"point within {margin:.1e} of a phase-space constraint; "
            "central stencils would leave the valid region"
        ) from None


def _map_jacobian(
    phi: Callable[[np.ndarray], np.ndarray], p: PhasePoint, step: float
) -> np.ndarray:
    """Finite-difference Jacobians at each point of p, shape (..., m, 2n), of a
    map phi that takes a (K, 2n) stack of coordinate vectors to a (K, m) stack
    of outputs, rows = outputs, cols = inputs.  phi is called once, on the
    stencils of all points in stack order: rows 2k and 2k + 1 of a point's
    stencil are that point with coordinate k moved by +step and -step."""
    x0 = p.as_vector()
    k = np.arange(x0.shape[-1])
    stencil = np.repeat(x0[..., None, :], 2 * len(k), axis=-2)
    stencil[..., 2 * k, k] += step
    stencil[..., 2 * k + 1, k] -= step
    out = phi(stencil.reshape(-1, len(k))).reshape(stencil.shape[:-1] + (-1,))
    return ((out[..., 0::2, :] - out[..., 1::2, :]) / (2.0 * step)).swapaxes(-1, -2)


def _bracket_table(j: np.ndarray) -> np.ndarray:
    """{phi_i, phi_j} = J Omega J^T for the Jacobians J of a vector map phi."""
    return j @ omega_matrix(j.shape[-1] // 2) @ j.swapaxes(-1, -2)


def poisson_brackets(
    phi: Callable[[PhasePoint], np.ndarray], p: PhasePoint, step: float = DEFAULT_STEP
) -> np.ndarray:
    """The table of brackets {phi_i, phi_j} at each point of p, shape (..., m, m),
    by second-order central differences, of a map phi that takes a (K, n)
    stack of phase points to a (K, m) stack of vectors."""
    _require_stencil(p, step)
    return _bracket_table(_map_jacobian(lambda x: phi(PhasePoint.from_vector(x)), p, step))


def _canonicity(j: np.ndarray) -> dict:
    """All brackets among the dual coordinates, from the spectral map's Jacobian J.

    With K the Jacobian of p -> (lambda_hat, theta_hat), that is J with its two
    row blocks swapped, the full bracket table is K Omega K^T; canonicity is
    K Omega K^T = Omega.
    """
    n = j.shape[-2] // 2
    table = _bracket_table(np.concatenate([j[..., n:, :], j[..., :n, :]], axis=-2))
    return {
        # {theta_hat_a, theta_hat_b} and {lambda_hat_a, lambda_hat_b}
        "action_action": np.abs(table[..., n:, n:]).max(axis=(-2, -1)),
        "angle_angle": np.abs(table[..., :n, :n]).max(axis=(-2, -1)),
        "cross_deviation": np.abs(table[..., :n, n:] - np.eye(n)).max(axis=(-2, -1)),
    }


def _form_residual(j: np.ndarray, sign: float) -> np.ndarray:
    """max |J^T Omega J + sign Omega|: 0 for an antisymplectic map's Jacobian J
    at sign = +1, for a symplectic one at sign = -1."""
    om = omega_matrix(j.shape[-1] // 2)
    return np.abs(j.swapaxes(-1, -2) @ om @ j + sign * om).max(axis=(-2, -1))


def _spectral_and_flow(x: np.ndarray, g: Coupling) -> tuple[np.ndarray, list]:
    """(spectral image, time-1 flow) over a (K, 2n) stack of points, both read
    from the one spectrum of L at those points, and the flow's checks (see
    dynamics._flow_units): a point that fails one has a nan flow."""
    frame = dual_frame(PhasePoint.from_vector(x), g)
    # the basis before the phase fix, as projection_flow takes it: the same bits
    xi_t, eta_t, checks = _flow_units(frame.bundle, frame.theta_hat, frame.basis, 1.0)
    return np.concatenate([frame.theta_hat, frame.lambda_hat, xi_t, eta_t], axis=-1), checks


def symplectic_residuals(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> dict:
    """Bracket residuals at p, one array per column over the stack p, from one
    Jacobian per point of the joint map q -> (spectral image, time-1 flow): the
    spectral block gives the canonicity of the dual coordinates and the
    reversal of the form, the flow block the preservation of the form by the
    flow.  "error" is the first failed flow check of the stencil, after the
    index of the point whose stencil it is (the report's point column), or None."""
    _require_stencil(p, step)
    flow_checks = []

    def joint_map(x: np.ndarray) -> np.ndarray:
        values, checks = _spectral_and_flow(x, g)
        flow_checks.extend(checks)
        return values

    j = _map_jacobian(joint_map, p, step)
    spectral, flow = j[..., : 2 * p.n, :], j[..., 2 * p.n :, :]
    first = _first_failure(flow_checks)
    return {
        **_canonicity(spectral),
        "antisymplectic": _form_residual(spectral, 1.0),
        "flow_symplectic": _form_residual(flow, -1.0),
        "error": f"point {first[0] // (4 * p.n)}: {first[1]}" if first else None,
    }
