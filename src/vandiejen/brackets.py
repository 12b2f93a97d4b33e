"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-1 flow
preserves it.

The battery row takes a phase point or a stack of them (see PhasePoint) and
returns one array per column.  Its Jacobians evaluate their map once, on the
central-difference stencils of all points as one flat stack of 4n points each,
each point plus a cached table of moves (_offsets):
the Lax matrices, their spectral images and their time-1 flows come from one
stacked pass, so each eigensolve or SVD is one numpy call.  Each stencil
point's values are bit-for-bit those of that point alone.  A stencil point
that fails a spectral check raises by the rule of phase_space.raise_first; one
whose time-1 flow fails a check of dynamics._flow_units has a nan flow, so its
point keeps its spectral columns, reads nan flow_symplectic and fails, and the
battery's "error" names the first such stencil point's reason and the point
whose stencil it is.  poisson_brackets takes a map of a stack and a point or
a stack in the same way.

Both first check the step and its stencils in _require_stencil, the one raise
of BracketError: bad input, so a PhaseSpaceError, which the CLI reads as usage.

A central difference carries its h^2 truncation and about eps max|value| / (2h)
of rounding (eps = 2.2e-16), a bracket that times the size of J: at the default
h = 1e-5 the bracket columns carry about 1e-8, a floor below which no
canonicity defect can show.  brackets --n 2 --points 1 --step 1e-9 fails on
rounding alone (angle_angle 1.96e-5 against 1e-5); --step 1e-3 passes.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .duality import dual_frame
from .dynamics import _flow_units
from .phase_space import Coupling, PhasePoint, PhaseSpaceError, require_valid

DEFAULT_STEP = 1e-5
INTERIOR_FACTOR = 10.0


class BracketError(PhaseSpaceError):
    pass


@lru_cache(maxsize=64)
def omega_matrix(n: int) -> np.ndarray:
    """The canonical Poisson matrix [[0, I], [-I, 0]] of size 2n, read-only."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:] = np.eye(n)
    om[n:, :n] = -np.eye(n)
    om.flags.writeable = False
    return om


def _require_stencil(p: PhasePoint, step: float):
    """The step must be finite and positive, and the central stencils of that
    step must stay inside the valid region around each point of p."""
    if not (math.isfinite(step) and step > 0):
        raise BracketError(f"step must be finite and positive, got {step}")
    margin = INTERIOR_FACTOR * step
    try:
        require_valid(p, gap=margin)
    except PhaseSpaceError:
        raise BracketError(
            f"point within {margin:.1e} of a phase-space constraint; "
            "central stencils would leave the valid region"
        ) from None


@lru_cache(maxsize=64)
def _offsets(size: int, step: float) -> np.ndarray:
    """The read-only (2 size, size) table of stencil moves: row 2k moves
    coordinate k by +step, row 2k + 1 by -step."""
    table = np.zeros((2 * size, size))
    k = np.arange(size)
    table[2 * k, k] = step
    table[2 * k + 1, k] = -step
    table.flags.writeable = False
    return table


def _map_jacobian(
    phi: Callable[[np.ndarray], np.ndarray], p: PhasePoint, step: float
) -> np.ndarray:
    """Finite-difference Jacobians at each point of p, shape (..., m, 2n), of a
    map phi that takes a (K, 2n) stack of coordinate vectors to a (K, m) stack
    of outputs, rows = outputs, cols = inputs.  phi is called once, on the
    stencils of all points in stack order: rows 2k and 2k + 1 of a point's
    stencil are that point with coordinate k moved by +step and -step, the
    point plus a row of _offsets, whose zeros leave the other coordinates."""
    x0 = p.as_vector()
    size = x0.shape[-1]
    stencil = x0[..., None, :] + _offsets(size, step)
    out = phi(stencil.reshape(-1, size)).reshape(stencil.shape[:-1] + (-1,))
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
    # the largest |K Omega K^T - Omega| of each n x n block, in one reduction
    blocks = np.abs(table - omega_matrix(n)).reshape(table.shape[:-2] + (2, n, 2, n))
    largest = blocks.max(axis=(-3, -1))
    return {
        # {theta_hat_a, theta_hat_b} and {lambda_hat_a, lambda_hat_b}
        "action_action": largest[..., 1, 1],
        "angle_angle": largest[..., 0, 0],
        "cross_deviation": largest[..., 0, 1],
    }


@lru_cache(maxsize=64)
def _form_targets(n: int) -> np.ndarray:
    """The read-only (2, 2n, 2n) pair (Omega, -Omega), which J^T Omega J
    cancels for an antisymplectic and a symplectic Jacobian J."""
    om = omega_matrix(n)
    targets = np.stack([om, -om])
    targets.flags.writeable = False
    return targets


def _form_residuals(j: np.ndarray) -> np.ndarray:
    """max |J^T Omega J + T| for each of the two (2n, 2n) blocks of the joint
    map's Jacobian J, shape (..., 4n, 2n), as one stacked product: the
    spectral block against T = Omega (antisymplectic), the flow block against
    T = -Omega (symplectic), shape (..., 2)."""
    n = j.shape[-1] // 2
    blocks = j.reshape(j.shape[:-2] + (2, 2 * n, 2 * n))
    form = blocks.swapaxes(-1, -2) @ omega_matrix(n) @ blocks
    return np.abs(form + _form_targets(n)).max(axis=(-2, -1))


def _spectral_and_flow(x: np.ndarray, g: Coupling) -> tuple[np.ndarray, np.ndarray, Callable]:
    """(spectral image, time-1 flow) over a (K, 2n) stack of points, both read
    from the one spectrum of L at those points, then the flow's failure mask
    and reason (see dynamics._flow_units): a point that fails has a nan flow."""
    frame = dual_frame(PhasePoint.from_vector(x), g)
    # the basis before the phase fix, as projection_flow takes it: the same bits
    xi_t, eta_t, failed, reason = _flow_units(frame.bundle, frame.theta_hat, frame.basis, 1.0)
    return np.concatenate([frame.theta_hat, frame.lambda_hat, xi_t, eta_t], axis=-1), failed, reason


def symplectic_residuals(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> dict:
    """Bracket residuals at p, one array per column over the stack p, from one
    Jacobian per point of the joint map q -> (spectral image, time-1 flow): the
    spectral block gives the canonicity of the dual coordinates and the
    reversal of the form, the flow block the preservation of the form by the
    flow.  "error" is the reason of the first stencil point whose flow fails,
    after the index of the point whose stencil it is (the report's point
    column), or None."""
    _require_stencil(p, step)
    flow_failure = []

    def joint_map(x: np.ndarray) -> np.ndarray:
        values, *failure = _spectral_and_flow(x, g)
        flow_failure.extend(failure)
        return values

    j = _map_jacobian(joint_map, p, step)
    forms = _form_residuals(j)
    failed, reason = flow_failure
    k = int(np.argmax(failed))
    return {
        **_canonicity(j[..., : 2 * p.n, :]),
        "antisymplectic": forms[..., 0],
        "flow_symplectic": forms[..., 1],
        "error": f"point {k // (4 * p.n)}: {reason(k)}" if failed.any() else None,
    }
