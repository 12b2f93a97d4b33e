"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-1 flow
preserves it.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .duality import dual_frame
from .dynamics import _flow_frame, _flow_step
from .phase_space import Coupling, PhasePoint, VandiejenError, validate

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
    step must stay inside the valid region around p."""
    if not (np.isfinite(step) and step > 0):
        raise BracketError(f"step must be finite and positive, got {step}")
    margin = INTERIOR_FACTOR * step
    if validate(p, gap=margin):
        raise BracketError(
            f"point within {margin:.1e} of a phase-space constraint; "
            "central stencils would leave the valid region"
        )


def _map_jacobian(
    phi: Callable[[PhasePoint], np.ndarray], p: PhasePoint, step: float
) -> np.ndarray:
    """Finite-difference Jacobian of a map from a phase point to a vector,
    rows = outputs, cols = inputs."""
    x0 = p.as_vector()
    cols = []
    for k in range(len(x0)):
        xp, xm = x0.copy(), x0.copy()
        xp[k] += step
        xm[k] -= step
        fp = phi(PhasePoint.from_vector(xp))
        fm = phi(PhasePoint.from_vector(xm))
        cols.append((fp - fm) / (2.0 * step))
    return np.array(cols).T


def _bracket_table(j: np.ndarray) -> np.ndarray:
    """{phi_i, phi_j} = J Omega J^T for the Jacobian J of a vector map phi."""
    return j @ omega_matrix(j.shape[1] // 2) @ j.T


def poisson_brackets(
    phi: Callable[[PhasePoint], np.ndarray], p: PhasePoint, step: float = DEFAULT_STEP
) -> np.ndarray:
    """The table of brackets {phi_i, phi_j} at p of a map phi from a phase point
    to a vector, by second-order central differences."""
    _require_stencil(p, step)
    return _bracket_table(_map_jacobian(phi, p, step))


def _canonicity(j: np.ndarray) -> dict:
    """All brackets among the dual coordinates, from the spectral map's Jacobian J.

    With K the Jacobian of p -> (lambda_hat, theta_hat), that is J with its two
    row blocks swapped, the full bracket table is K Omega K^T; canonicity is
    K Omega K^T = Omega.
    """
    n = j.shape[0] // 2
    table = _bracket_table(np.concatenate([j[n:], j[:n]]))
    return {
        "action_action": float(np.abs(table[n:, n:]).max()),  # {theta_hat_a, theta_hat_b}
        "angle_angle": float(np.abs(table[:n, :n]).max()),  # {lambda_hat_a, lambda_hat_b}
        "cross_deviation": float(np.abs(table[:n, n:] - np.eye(n)).max()),
    }


def _form_residual(j: np.ndarray, sign: float) -> float:
    """max |J^T Omega J + sign Omega|: 0 for an antisymplectic map's Jacobian J
    at sign = +1, for a symplectic one at sign = -1."""
    om = omega_matrix(j.shape[1] // 2)
    return float(np.abs(j.T @ om @ j + sign * om).max())


def _spectral_and_flow(q: PhasePoint, g: Coupling) -> np.ndarray:
    """(spectral image, time-1 flow) at q, both read from the one Lax bundle at q."""
    frame = dual_frame(q, g)
    flowed = _flow_step(_flow_frame(frame.bundle), g, 1.0)
    return np.concatenate([frame.image.as_vector(), flowed.as_vector()])


def symplectic_residuals(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> dict:
    """Bracket residuals at p from one Jacobian of the joint map
    q -> (spectral image, time-1 flow): the spectral block gives the
    canonicity of the dual coordinates and the reversal of the form, the flow
    block the preservation of the form by the flow."""
    _require_stencil(p, step)
    j = _map_jacobian(lambda q: _spectral_and_flow(q, g), p, step)
    spectral, flow = j[: 2 * p.n], j[2 * p.n :]
    return {
        **_canonicity(spectral),
        "antisymplectic": _form_residual(spectral, 1.0),
        "flow_symplectic": _form_residual(flow, -1.0),
    }
