"""Phase-space points, coupling parameters, regularity classes, deterministic sampling.

A phase point carries ordered positive positions xi_1 > ... > xi_n > 0 and
unconstrained rapidities eta.  A PhasePoint holds one point or a stack of
points: xi and eta of shape (..., n), a single point being the stack with no
leading axis.  Couplings g = (mu, nu) are classified by margin
rather than exact inequality: near-degenerate couplings make the downstream
eigenproblem ill-conditioned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_GAP = 1e-8
DEFAULT_REG_MARGIN = 1e-6

# Sampling defaults keep spectra well separated so the dual machinery stays
# well-conditioned; the identities under test hold on all of phase space.
DEFAULT_XI_RANGE = (0.3, 2.5)
DEFAULT_XI_GAP = 0.2
DEFAULT_ETA_RANGE = (-1.5, 1.5)
XI_ATTEMPTS = 1000
XI_FIRST_BLOCK = 16  # sample's first block, timed at n = 2, 4, 6 (about 39 attempts a point at 6)


class VandiejenError(ValueError):
    """Base of the library's errors; each module raises its own subclass."""


class PhaseSpaceError(VandiejenError):
    pass


@dataclass(frozen=True)
class PhasePoint:
    """A point (xi, eta) with n particles, or a stack of them along leading axes.
    Only shape and finiteness are checked here; the chamber xi strictly
    descending positive is checked by require_valid."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        if self.xi.ndim == 0 or self.xi.shape != self.eta.shape or self.xi.size == 0:
            raise PhaseSpaceError("xi and eta must be equal-length non-empty vectors")
        if not (np.isfinite(self.xi).all() and np.isfinite(self.eta).all()):
            raise PhaseSpaceError("non-finite coordinates")

    @property
    def n(self) -> int:
        return self.xi.shape[-1]

    def as_vector(self) -> np.ndarray:
        """Coordinates in the canonical order (xi_1..xi_n, eta_1..eta_n), shape (..., 2n)."""
        return np.concatenate([self.xi, self.eta], axis=-1)

    @staticmethod
    def from_vector(x) -> "PhasePoint":
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] // 2
        return PhasePoint(xi=x[..., :n], eta=x[..., n:])

    def require_one(self):
        """Raise PhaseSpaceError for a stack: the check of every routine that takes one point."""
        if self.xi.ndim != 1:
            raise PhaseSpaceError(
                f"expected one phase point, got a stack of shape {self.xi.shape[:-1]}"
            )


@dataclass(frozen=True)
class Coupling:
    """Coupling g = (mu, nu), classified by the margin DEFAULT_REG_MARGIN."""

    mu: float
    nu: float

    def in_base_class(self) -> bool:
        """mu and nu finite and sin(mu) != 0 != sin(nu), by margin."""
        return bool(np.isfinite([self.mu, self.nu]).all()) and (
            min(abs(np.sin(self.mu)), abs(np.sin(self.nu))) > DEFAULT_REG_MARGIN
        )

    def is_regular(self) -> bool:
        """Base class plus sin(2 mu - nu) != 0: the Lax spectrum is then simple."""
        return self.in_base_class() and abs(np.sin(2 * self.mu - self.nu)) > DEFAULT_REG_MARGIN

    def require_regular(self):
        """The one coupling check: raises PhaseSpaceError naming the base class
        when the coupling misses it, else the regular class when it misses that."""
        if not self.is_regular():
            missed = "regular" if self.in_base_class() else "base"
            raise PhaseSpaceError(
                f"coupling (mu={self.mu}, nu={self.nu}) outside the {missed} class"
            )

    def hat(self) -> "Coupling":
        """The involution g -> (-mu, -nu); exact since it is a sign flip."""
        return Coupling(mu=-self.mu, nu=-self.nu)


def require_valid(p: PhasePoint, gap: float = DEFAULT_GAP):
    """Raise PhaseSpaceError naming the violations of the first invalid point
    of p, in stack order: each step xi_a - xi_{a+1}, then the last position,
    below gap."""
    xi = p.xi.reshape(-1, p.n)
    margins = np.concatenate([xi[:, :-1] - xi[:, 1:], xi[:, -1:]], axis=-1)
    if margins.min() < gap:
        first = margins[(margins < gap).any(axis=-1)][0]
        raise PhaseSpaceError("; ".join(
            f"xi[{a}] - xi[{a + 1}] = {m:.3e} below gap" if a < p.n - 1
            else f"xi[{a}] = {m:.3e} below gap"
            for a, m in enumerate(first) if m < gap
        ))


def sample(n: int, seed: int) -> PhasePoint:
    """Deterministic sample: positions in the box DEFAULT_XI_RANGE, sorted
    descending with steps of at least DEFAULT_XI_GAP, and rapidities in
    DEFAULT_ETA_RANGE.

    One default_rng(seed) gives XI_ATTEMPTS attempts, drawn in blocks of
    16, 32, 64, ... rows of rng.random((k, n)).  A row maps to positions
    through lo + (hi - lo) * u, bit-for-bit rng.uniform(lo, hi, n), and the
    first row whose sorted steps all clear DEFAULT_XI_GAP is taken.  The
    rapidities are the next n numbers of the stream: the block's next row, or
    one more rng.random(n) after its last.  So the point is the one that
    drawing one attempt at a time with rng.uniform gives, whatever the
    blocking."""
    if n < 1:
        raise PhaseSpaceError("n must be >= 1")
    lo, hi = DEFAULT_XI_RANGE
    if hi - lo < (n - 1) * DEFAULT_XI_GAP:
        raise PhaseSpaceError(
            f"infeasible position bounds {DEFAULT_XI_RANGE} for n={n}, gap={DEFAULT_XI_GAP}"
        )
    rng = np.random.default_rng(seed)
    start, block = 0, XI_FIRST_BLOCK
    while start < XI_ATTEMPTS:
        u = rng.random((min(block, XI_ATTEMPTS - start), n))
        xi = np.sort(lo + (hi - lo) * u, axis=-1)
        ok = np.all(np.diff(xi, axis=-1) >= DEFAULT_XI_GAP, axis=-1)
        if ok.any():
            i = int(np.argmax(ok))
            v = u[i + 1] if i + 1 < len(u) else rng.random(n)
            eta_lo, eta_hi = DEFAULT_ETA_RANGE
            return PhasePoint(xi=xi[i, ::-1], eta=eta_lo + (eta_hi - eta_lo) * v)
        start, block = start + len(u), 2 * block
    raise PhaseSpaceError("could not realize the requested minimal gap")
