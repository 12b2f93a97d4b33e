"""Phase-space points, coupling parameters, regularity classes, deterministic sampling.

A phase point carries ordered positive positions xi_1 > ... > xi_n > 0 and
unconstrained rapidities eta.  A PhasePoint holds one point or a stack of
points: xi and eta of shape (..., n), a single point being the stack with no
leading axis.  Couplings g = (mu, nu) are classified by margin
rather than exact inequality: near-degenerate couplings make the downstream
eigenproblem ill-conditioned.
"""
from __future__ import annotations

import operator
import sys
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


def raise_first(bad, error, message):
    """The rule of every check that names a unit of a stack: where the boolean
    array bad (one entry per unit, the stack's leading axes) holds for some
    unit, raise error(message(i)) for the first such unit in C order, i being
    its index tuple (() for a single unit).  Each stage check runs over the
    whole stack before the next stage, so a stack raises at its earliest
    failing stage, for the first unit that fails there."""
    bad = np.asarray(bad)
    if np.count_nonzero(bad):  # a C-level count: ndarray.any runs through Python
        raise error(message(np.unravel_index(np.argmax(bad), bad.shape)))


def require_valid(p: PhasePoint, gap: float = DEFAULT_GAP):
    """Raise PhaseSpaceError naming the violations of the first invalid point
    of p (see raise_first): each step xi_a - xi_{a+1}, then the last position,
    below gap."""
    margins = np.concatenate([p.xi[..., :-1] - p.xi[..., 1:], p.xi[..., -1:]], axis=-1)
    raise_first((margins < gap).any(axis=-1), PhaseSpaceError, lambda i: "; ".join(
        f"xi[{a}] - xi[{a + 1}] = {m:.3e} below gap" if a < p.n - 1
        else f"xi[{a}] = {m:.3e} below gap"
        for a, m in enumerate(margins[i]) if m < gap
    ))


def time_grid(t) -> np.ndarray:
    """The one time rule of every routine that reads times: t, one time or a
    sequence of them, as a 1-d float array.  An empty grid, or a non-finite
    time (the first is named), raises PhaseSpaceError."""
    t = np.asarray(t, dtype=float).ravel()
    if t.size == 0:
        raise PhaseSpaceError("a time grid needs at least one time")
    raise_first(~np.isfinite(t), PhaseSpaceError, lambda i: f"non-finite time {t[i]}")
    return t


def seeded_uniforms(seed, k: int, units: str) -> tuple[np.ndarray, bool]:
    """Every sampler's draws: (u, one), row i of u the first k numbers of
    np.random.default_rng(s).random for seed s, the i-th of a sequence or the
    one seed, and whether it is one, filled row by row.  An empty sequence,
    more seeds than u can hold, or a negative seed raises PhaseSpaceError."""
    try:
        count, one = len(seed), False
    except TypeError:  # an int has no length: one seed
        seed, count, one = [seed], 1, True
    except OverflowError:  # a range longer than any index
        raise PhaseSpaceError(f"more than {sys.maxsize} {units} are too many to allocate") from None
    if not count:
        raise PhaseSpaceError(f"a stack of {units} needs at least one seed")
    try:
        u = np.empty((count, k))
    except (MemoryError, ValueError):  # ValueError: past the largest array size
        raise PhaseSpaceError(f"{count} {units} are too many to allocate") from None
    seeds = [operator.index(s) for s in seed]
    if min(seeds) < 0:
        raise PhaseSpaceError(f"a seed must be non-negative, got {min(seeds)}")
    for row, s in zip(u, seeds):
        np.random.default_rng(s).random(out=row)
    return u, one


def sample(n: int, seed) -> PhasePoint:
    """Deterministic sample: positions in the box DEFAULT_XI_RANGE, sorted
    descending with steps of DEFAULT_XI_GAP or more (up to a few ulps of
    rounding), and rapidities in DEFAULT_ETA_RANGE.  One seed gives one
    point, a sequence of seeds (at least one) the stack of their points,
    point i being the point of seed[i] alone.

    A point reads its 2n numbers u from seeded_uniforms.  With
    slack = hi - lo - (n - 1) DEFAULT_XI_GAP, xi_a = lo + slack s_a +
    DEFAULT_XI_GAP (n - 1 - a), s the first n of u sorted descending, and eta
    maps the last n onto DEFAULT_ETA_RANGE.  x_(k) - (k - 1) DEFAULT_XI_GAP
    maps the feasible set onto sorted points in a box of side slack with unit
    Jacobian, so the points have the law of drawing boxes until one clears
    the gaps (Devroye, Non-Uniform Random Variate Generation, 1986, ch. V).
    At n = 12 the slack is 0: the positions are the same for every seed and
    only eta is random."""
    if n < 1:
        raise PhaseSpaceError("n must be >= 1")
    lo, hi = DEFAULT_XI_RANGE
    slack = hi - lo - (n - 1) * DEFAULT_XI_GAP
    if slack < 0:
        raise PhaseSpaceError(
            f"infeasible position bounds {DEFAULT_XI_RANGE} for n={n}, gap={DEFAULT_XI_GAP}"
        )
    u, one = seeded_uniforms(seed, 2 * n, "points")
    steps = DEFAULT_XI_GAP * np.arange(n - 1, -1, -1)
    eta_lo, eta_hi = DEFAULT_ETA_RANGE
    u = u[0] if one else u
    return PhasePoint(xi=lo + slack * np.sort(u[..., :n])[..., ::-1] + steps,
                      eta=eta_lo + (eta_hi - eta_lo) * u[..., n:])
