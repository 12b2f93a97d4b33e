"""Phase-space points, coupling parameters, regularity classes, deterministic sampling.

A phase point carries ordered positive positions xi_1 > ... > xi_n > 0 and
unconstrained rapidities eta.  Couplings g = (mu, nu) are classified by margin
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


class VandiejenError(ValueError):
    """Base of the library's errors; each module raises its own subclass."""


class PhaseSpaceError(VandiejenError):
    pass


@dataclass(frozen=True)
class PhasePoint:
    """A point (xi, eta) with n particles.  Only shape and finiteness are checked
    here; the chamber xi strictly descending positive is checked by validate."""

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        if self.xi.ndim != 1 or self.xi.shape != self.eta.shape or len(self.xi) == 0:
            raise PhaseSpaceError("xi and eta must be equal-length non-empty vectors")
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.eta))):
            raise PhaseSpaceError("non-finite coordinates")

    @property
    def n(self) -> int:
        return len(self.xi)

    def as_vector(self) -> np.ndarray:
        """Coordinates in the canonical order (xi_1..xi_n, eta_1..eta_n)."""
        return np.concatenate([self.xi, self.eta])

    @staticmethod
    def from_vector(x) -> "PhasePoint":
        x = np.asarray(x, dtype=float)
        n = len(x) // 2
        return PhasePoint(xi=x[:n], eta=x[n:])


@dataclass(frozen=True)
class Coupling:
    """Coupling g = (mu, nu), classified by the margin DEFAULT_REG_MARGIN."""

    mu: float
    nu: float

    def in_base_class(self) -> bool:
        """sin(mu) != 0 != sin(nu), by margin."""
        return min(abs(np.sin(self.mu)), abs(np.sin(self.nu))) > DEFAULT_REG_MARGIN

    def is_regular(self) -> bool:
        """Base class plus sin(2 mu - nu) != 0: the Lax spectrum is then simple."""
        return self.in_base_class() and abs(np.sin(2 * self.mu - self.nu)) > DEFAULT_REG_MARGIN

    def is_strongly_regular(self) -> bool:
        """Regular plus cos(mu - nu) != 0."""
        return self.is_regular() and abs(np.cos(self.mu - self.nu)) > DEFAULT_REG_MARGIN

    def require_regular(self):
        if not self.is_regular():
            raise PhaseSpaceError(
                f"coupling (mu={self.mu}, nu={self.nu}) outside the regular class"
            )

    def hat(self) -> "Coupling":
        """The involution g -> (-mu, -nu); exact since it is a sign flip."""
        return Coupling(mu=-self.mu, nu=-self.nu)


@dataclass(frozen=True)
class Violation:
    kind: str  # "order" | "positivity"
    index: int
    margin: float

    def __str__(self):
        if self.kind == "order":
            return f"xi[{self.index}] - xi[{self.index + 1}] = {self.margin:.3e} below gap"
        return f"xi[{self.index}] = {self.margin:.3e} below gap"


def validate(p: PhasePoint, gap: float = DEFAULT_GAP):
    """Return a list of ordering violations (empty means the point is valid)."""
    out = []
    for a in range(p.n - 1):
        d = p.xi[a] - p.xi[a + 1]
        if d < gap:
            out.append(Violation("order", a, d))
    if p.xi[-1] < gap:
        out.append(Violation("positivity", p.n - 1, p.xi[-1]))
    return out


def require_valid(p: PhasePoint, gap: float = DEFAULT_GAP):
    bad = validate(p, gap)
    if bad:
        raise PhaseSpaceError("; ".join(str(v) for v in bad))


def require_valid_stack(xi: np.ndarray, gap: float = DEFAULT_GAP):
    """require_valid over a (..., n) stack of positions, a single point having
    no leading axis: raises the error of the first invalid point in stack order."""
    steps = xi[..., :-1] - xi[..., 1:]
    if steps.min(initial=xi[..., -1].min()) < gap:
        rows = xi.reshape(-1, xi.shape[-1])
        first = rows[np.argmin((rows[:, -1] >= gap) & (rows[:, :-1] - rows[:, 1:] >= gap).all(axis=-1))]
        require_valid(PhasePoint(xi=first, eta=np.zeros_like(first)), gap)


def sample(
    n: int,
    seed: int,
    xi_range=DEFAULT_XI_RANGE,
    xi_gap: float = DEFAULT_XI_GAP,
    eta_range=DEFAULT_ETA_RANGE,
) -> PhasePoint:
    """Deterministic sample: positions in a box, sorted descending with enforced gap."""
    if n < 1:
        raise PhaseSpaceError("n must be >= 1")
    lo, hi = xi_range
    if lo <= 0 or hi - lo < (n - 1) * xi_gap or lo < xi_gap:
        raise PhaseSpaceError(f"infeasible position bounds {xi_range} for n={n}, gap={xi_gap}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        xi = np.sort(rng.uniform(lo, hi, size=n))[::-1]
        if n == 1 or np.min(-np.diff(xi)) >= xi_gap:
            eta = rng.uniform(eta_range[0], eta_range[1], size=n)
            return PhasePoint(xi=xi, eta=eta)
    raise PhaseSpaceError("could not realize the requested minimal gap")
