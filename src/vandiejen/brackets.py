"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-1 flow
preserves it.

A Jacobian evaluates its map once, on the whole central-difference stencil as
one (4n, 2n) stack of points: the battery row builds the 4n Lax matrices, their
spectral images and their time-1 flows in one stacked pass, so each (4n, 2n, 2n)
eigensolve or SVD is one numpy call.  Each stencil point's values are
bit-for-bit those of that point alone.  A check that fails at some stencil
point raises its typed error for the first such point in stencil order, at the
earliest stage that fails.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .duality import spectral_stack
from .dynamics import _flow_frame, _flow_step
from .lax import lax_stack
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
    phi: Callable[[np.ndarray], np.ndarray], p: PhasePoint, step: float
) -> np.ndarray:
    """Finite-difference Jacobian at p of a map phi that takes a (K, 2n) stack
    of coordinate vectors to a (K, m) stack of outputs, rows = outputs,
    cols = inputs.  phi is called once, on the stencil: rows 2k and 2k + 1 are
    p with coordinate k moved by +step and -step."""
    x0 = p.as_vector()
    k = np.arange(len(x0))
    stencil = np.repeat(x0[None], 2 * len(x0), axis=0)
    stencil[2 * k, k] += step
    stencil[2 * k + 1, k] -= step
    out = phi(stencil)
    return ((out[0::2] - out[1::2]) / (2.0 * step)).T


def _pointwise(phi: Callable[[PhasePoint], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """A map of one phase point as a map of a stack of coordinate vectors."""
    return lambda xs: np.array([phi(PhasePoint.from_vector(x)) for x in xs])


def _bracket_table(j: np.ndarray) -> np.ndarray:
    """{phi_i, phi_j} = J Omega J^T for the Jacobian J of a vector map phi."""
    return j @ omega_matrix(j.shape[1] // 2) @ j.T


def poisson_brackets(
    phi: Callable[[PhasePoint], np.ndarray], p: PhasePoint, step: float = DEFAULT_STEP
) -> np.ndarray:
    """The table of brackets {phi_i, phi_j} at p of a map phi from a phase point
    to a vector, by second-order central differences."""
    _require_stencil(p, step)
    return _bracket_table(_map_jacobian(_pointwise(phi), p, step))


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


def _spectral_and_flow(x: np.ndarray, g: Coupling) -> np.ndarray:
    """(spectral image, time-1 flow) over a (K, 2n) stack of points, both read
    from the one stack of Lax data at those points."""
    n = x.shape[-1] // 2
    _, _, f, lam, matrix = lax_stack(x[:, :n], x[:, n:], g)
    theta_hat, _, _, _, lambda_hat = spectral_stack(lam, f, matrix, g)
    xi_t, eta_t = _flow_step(_flow_frame(lam, matrix), g, 1.0)
    return np.concatenate([theta_hat, lambda_hat, xi_t, eta_t], axis=-1)


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
