"""Finite-difference Poisson brackets and symplectic-structure certification.

The canonical structure uses coordinates ordered (positions, rapidities) with
bracket {f, h} = (grad f)^T Omega (grad h), Omega = [[0, I], [-I, 0]].  The
headline checks: the dual coordinates form a Darboux system (all brackets
canonical), the spectral map reverses the symplectic form, and the time-s flow
preserves it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .duality import dual_frame, duality_map
from .dynamics import _flow_frame, _flow_step, projection_flow
from .phase_space import Coupling, PhasePoint, VandiejenError, validate

DEFAULT_STEP = 1e-5
INTERIOR_FACTOR = 10.0


class BracketError(VandiejenError):
    pass


@dataclass(frozen=True)
class Observable:
    label: str
    fn: Callable[[PhasePoint], float]

    def __call__(self, p: PhasePoint) -> float:
        return float(self.fn(p))


def omega_matrix(n: int) -> np.ndarray:
    """The canonical Poisson matrix [[0, I], [-I, 0]] of size 2n."""
    om = np.zeros((2 * n, 2 * n))
    om[:n, n:] = np.eye(n)
    om[n:, :n] = -np.eye(n)
    return om


def _require_interior(p: PhasePoint, step: float):
    margin = INTERIOR_FACTOR * step
    if validate(p, gap=margin):
        raise BracketError(
            f"point within {margin:.1e} of a phase-space constraint; "
            "central stencils would leave the valid region"
        )


def poisson_bracket(
    f: Observable, h: Observable, p: PhasePoint, step: float = DEFAULT_STEP
) -> float:
    """{f, h} at p by second-order central differences."""
    if step <= 0:
        raise BracketError("step must be positive")
    _require_interior(p, step)
    gf = _map_jacobian(lambda q: np.array([f(q)]), p, step)[0]
    gh = _map_jacobian(lambda q: np.array([h(q)]), p, step)[0]
    return float(gf @ omega_matrix(p.n) @ gh)


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


@dataclass(frozen=True)
class CanonicityReport:
    step: float
    action_action: float  # max |{theta_hat_a, theta_hat_b}|
    angle_angle: float  # max |{lambda_hat_a, lambda_hat_b}|
    cross_deviation: float  # max |{lambda_hat_a, theta_hat_b} - delta_ab|

    @property
    def max_deviation(self) -> float:
        return max(self.action_action, self.angle_angle, self.cross_deviation)


def spectral_jacobian(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> np.ndarray:
    """Finite-difference Jacobian J of the spectral map p -> (theta_hat, lambda_hat)."""
    _require_interior(p, step)
    return _map_jacobian(lambda q: duality_map(q, g).as_vector(), p, step)


def _canonicity(j: np.ndarray, step: float) -> CanonicityReport:
    """All brackets among the dual coordinates, from the spectral map's Jacobian J.

    With K the Jacobian of p -> (lambda_hat, theta_hat), that is J with its two
    row blocks swapped, the full bracket table is K Omega K^T; canonicity is
    K Omega K^T = Omega.
    """
    n = j.shape[0] // 2
    k = np.concatenate([j[n:], j[:n]])
    table = k @ omega_matrix(n) @ k.T
    return CanonicityReport(
        step=step,
        action_action=float(np.abs(table[n:, n:]).max()),
        angle_angle=float(np.abs(table[:n, :n]).max()),
        cross_deviation=float(np.abs(table[:n, n:] - np.eye(n)).max()),
    )


def _form_residual(j: np.ndarray, sign: float) -> float:
    """max |J^T Omega J + sign Omega|: 0 for an antisymplectic map's Jacobian J
    at sign = +1, for a symplectic one at sign = -1."""
    om = omega_matrix(j.shape[1] // 2)
    return float(np.abs(j.T @ om @ j + sign * om).max())


def canonicity_suite(
    p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP
) -> CanonicityReport:
    """All brackets among the dual coordinates at p; see _canonicity."""
    return _canonicity(spectral_jacobian(p, g, step), step)


def antisymplectic_check(p: PhasePoint, g: Coupling, step: float = DEFAULT_STEP) -> float:
    """max |J^T Omega J + Omega| for the spectral map's Jacobian J at p."""
    return _form_residual(spectral_jacobian(p, g, step), 1.0)


def flow_symplectic_check(
    p: PhasePoint, g: Coupling, s: float = 1.0, step: float = DEFAULT_STEP
) -> float:
    """max |J^T Omega J - Omega| for the time-s flow map's Jacobian."""
    _require_interior(p, step)
    j = _map_jacobian(lambda q: projection_flow(q, g, s).as_vector(), p, step)
    return _form_residual(j, -1.0)


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
    _require_interior(p, step)
    j = _map_jacobian(lambda q: _spectral_and_flow(q, g), p, step)
    spectral, flow = j[: 2 * p.n], j[2 * p.n :]
    rep = _canonicity(spectral, step)
    return {
        "action_action": rep.action_action,
        "angle_angle": rep.angle_angle,
        "cross_deviation": rep.cross_deviation,
        "antisymplectic": _form_residual(spectral, 1.0),
        "flow_symplectic": _form_residual(flow, -1.0),
    }


def position_observable(a: int) -> Observable:
    return Observable(f"xi_{a}", lambda p: p.xi[a])


def rapidity_observable(a: int) -> Observable:
    return Observable(f"eta_{a}", lambda p: p.eta[a])


def dual_angle_observable(a: int, g: Coupling) -> Observable:
    return Observable(f"theta_hat_{a}", lambda p: duality_map(p, g).xi[a])


def dual_position_observable(a: int, g: Coupling) -> Observable:
    return Observable(f"lambda_hat_{a}", lambda p: duality_map(p, g).eta[a])
