"""Asymptotic scattering data: phase shifts, wave maps and the factorized scattering map.

The total phase shift of each particle is a sum of pairwise and one-body
terms Delta_a; asymptotic positions come in two routes (a closed form in the
dual coordinates, and the leading principal minors of the diagonal blocks of
the dual matrix L_hat = B* B, read off a QR of the factor B's columns) which
must agree.

The phase shifts, the maps, the asymptotic data and the identity residuals
take a phase point or a stack of them (see PhasePoint), each result carrying
the leading axes of the stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .duality import _descending_rows, dual_frame
from .phase_space import Coupling, PhasePoint, VandiejenError


class ScatteringError(VandiejenError):
    pass


def delta_vector(xi, g: Coupling) -> np.ndarray:
    """Phase shifts Delta_a at the ordered positive vector xi, or at each vector
    of a (..., n) stack: the one-body log term in 2*xi_a plus signed two-body
    log terms over index pairs."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if (xi.shape[-1] > 1 and np.diff(xi).max() >= 0) or xi[..., -1].min() <= 0:
        raise ScatteringError("xi must be strictly descending positive")
    return _kernels.delta_shifts(xi, g.mu, g.nu)


@dataclass(frozen=True)
class AsymptoticData:
    theta_plus: np.ndarray
    theta_minus: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    delta: np.ndarray
    minor_route_plus: np.ndarray  # lambda_plus recomputed from the leading minors
    minor_route_minus: np.ndarray

    def wave(self, sign: int) -> PhasePoint:
        """Wave data (lambda_plus, theta_plus) or (lambda_minus, theta_minus)."""
        if sign not in (1, -1):
            raise ScatteringError("sign must be +1 or -1")
        if sign == 1:
            return PhasePoint(xi=self.lambda_plus, eta=self.theta_plus)
        return PhasePoint(xi=self.lambda_minus, eta=self.theta_minus)


def asymptotic_data(p: PhasePoint, g: Coupling) -> AsymptoticData:
    """Both routes to the asymptotic positions, cross-checkable by the caller."""
    frame = dual_frame(p, g)
    n = frame.n
    th = frame.theta_hat
    delta = delta_vector(th, g)
    lam_plus = 0.5 * frame.lambda_hat + 0.5 * delta
    lam_minus = -0.5 * frame.lambda_hat + 0.5 * delta
    # lambda_a = 0.5 ln(pi_a / pi_{a-1}), pi the leading minors of a diagonal
    # block of L_hat (the blocks the flow matrix in regular form and its full
    # reversal start with).  L_hat = B* B, B = e^{Lam} y_hat, so that is ln |R_aa|
    # of a QR of the block's columns of B, rows in descending Lam as graded rows
    # need; the phase fix scales basis columns by unit factors, which |R_aa| keeps.
    rows = _descending_rows(n)
    b = np.exp(frame.bundle.lam)[..., rows, None] * frame.basis[..., rows, :]
    r = np.linalg.qr(np.stack([b[..., :n], b[..., n:]]), mode="r")
    minor_plus, minor_minus = np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    return AsymptoticData(
        theta_plus=2.0 * th,
        theta_minus=-2.0 * th,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        delta=delta,
        minor_route_plus=minor_plus,
        minor_route_minus=minor_minus,
    )


def scattering_map(zeta: PhasePoint, g: Coupling) -> PhasePoint:
    """S: incoming free data (xi, eta) with eta ascending negative to outgoing
    (-xi_a + Delta_a(-eta/2), -eta)."""
    eta = zeta.eta
    if (zeta.n > 1 and np.diff(eta).min() <= 0) or eta[..., -1].max() >= 0:
        raise ScatteringError("incoming rapidities must be strictly ascending negative")
    new_xi = -zeta.xi + delta_vector(-eta / 2.0, g)
    return PhasePoint(xi=new_xi, eta=-eta)


def upsilon(p: PhasePoint, g: Coupling, sign: int) -> PhasePoint:
    """Auxiliary half-shift maps: (xi, eta) -> (sign*eta/2 + Delta(xi)/2, sign*2*xi)."""
    x = sign * 0.5 * p.eta + 0.5 * delta_vector(p.xi, g)
    return PhasePoint(xi=x, eta=sign * 2.0 * p.xi)


def upsilon_minus_inverse(zeta: PhasePoint, g: Coupling) -> PhasePoint:
    """Invert the minus-branch half-shift map."""
    xi = -zeta.eta / 2.0
    eta = delta_vector(xi, g) - 2.0 * zeta.xi
    return PhasePoint(xi=xi, eta=eta)


def identity_residuals(p: PhasePoint, g: Coupling) -> dict:
    """Residuals of the scattering identities at p, one array per column over
    the stack p, all from one asymptotic_data: lambda_plus + lambda_minus =
    Delta, both minor routes, S(W_-) = W_+, and S against its factorization
    through the half-shift maps."""
    data = asymptotic_data(p, g)
    wm, wp = data.wave(-1), data.wave(1)
    sw = scattering_map(wm, g)
    comp = upsilon(upsilon_minus_inverse(wm, g), g, 1)
    return {
        "sum_identity": np.abs(data.lambda_plus + data.lambda_minus - data.delta).max(axis=-1),
        "minor_route_plus": np.abs(data.lambda_plus - data.minor_route_plus).max(axis=-1),
        "minor_route_minus": np.abs(data.lambda_minus - data.minor_route_minus).max(axis=-1),
        "scattering_consistency": np.abs(sw.as_vector() - wp.as_vector()).max(axis=-1),
        "composite_route": np.abs(sw.as_vector() - comp.as_vector()).max(axis=-1),
    }
