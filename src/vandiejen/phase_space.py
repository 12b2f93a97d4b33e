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
# candidates per stacked call of a seeded sampler: a bound on its working memory
CANDIDATE_CAP = 128


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


def _seed_list(seed) -> tuple[list[int], bool]:
    """The seeds of one seed or a sequence of seeds, and whether it was one."""
    one = np.ndim(seed) == 0
    return [operator.index(s) for s in ([seed] if one else seed)], one


def _rounds(pending: dict, first_block: int, attempts: int):
    """The attempt schedule of the seeded samplers, over the units (keys) in
    pending, in order.

    Round r draws attempts start .. start + take - 1 of every unit still in
    pending, take = first_block * 2**r up to attempts in all, as one chunk of
    units after another, each holding at most CANDIDATE_CAP candidates (one
    unit at least).  Yields (chunk, start, take); the caller deletes from
    pending every unit that it has finished, and what remains after the last
    round has run out of attempts."""
    start, block = 0, first_block
    while pending and start < attempts:
        take = min(block, attempts - start)
        units, per_call = list(pending), max(1, CANDIDATE_CAP // take)
        for c in range(0, len(units), per_call):
            yield units[c : c + per_call], start, take
        start, block = start + take, 2 * block


def sample(n: int, seed) -> PhasePoint:
    """Deterministic sample: positions in the box DEFAULT_XI_RANGE, sorted
    descending with steps of at least DEFAULT_XI_GAP, and rapidities in
    DEFAULT_ETA_RANGE.  One seed gives one point, a sequence of seeds the
    stack of their points, point i being the point of seed[i] alone.

    Each point draws from its own default_rng(seed), XI_ATTEMPTS attempts in
    blocks of 16, 32, 64, ... rows of rng.random((k, n)).  A row maps to
    positions through lo + (hi - lo) * u, bit-for-bit rng.uniform(lo, hi, n),
    and the first row whose sorted steps all clear DEFAULT_XI_GAP is taken.
    The rapidities are the next n numbers of the stream: the block's next
    row, or one more rng.random(n) after its last.  So a point is the one
    that drawing one attempt at a time with rng.uniform gives, whatever the
    blocking.  The blocks of all points still unfinished after a round are
    sorted and tested together, at most CANDIDATE_CAP rows per call (see
    _rounds); a seed that runs out of attempts is an error."""
    if n < 1:
        raise PhaseSpaceError("n must be >= 1")
    lo, hi = DEFAULT_XI_RANGE
    if hi - lo < (n - 1) * DEFAULT_XI_GAP:
        raise PhaseSpaceError(
            f"infeasible position bounds {DEFAULT_XI_RANGE} for n={n}, gap={DEFAULT_XI_GAP}"
        )
    seeds, one = _seed_list(seed)
    xi, v = np.empty((len(seeds), n)), np.empty((len(seeds), n))
    pending, rngs = dict.fromkeys(range(len(seeds))), {}  # rngs: the generators of units begun
    for chunk, start, take in _rounds(pending, XI_FIRST_BLOCK, XI_ATTEMPTS):
        u = np.empty((len(chunk), take, n))
        for row, i in enumerate(chunk):
            if start == 0:
                rngs[i] = np.random.default_rng(seeds[i])
            rngs[i].random(out=u[row])
        xs = np.sort(lo + (hi - lo) * u, axis=-1)
        ok = np.all(np.diff(xs, axis=-1) >= DEFAULT_XI_GAP, axis=-1)
        for row, i in enumerate(chunk):
            if ok[row].any():
                j, rng = int(np.argmax(ok[row])), rngs.pop(i)
                xi[i] = xs[row, j, ::-1]
                v[i] = u[row, j + 1] if j + 1 < take else rng.random(n)
                del pending[i]
    if pending:
        raise PhaseSpaceError("could not realize the requested minimal gap")
    eta_lo, eta_hi = DEFAULT_ETA_RANGE
    p = PhasePoint(xi=xi, eta=eta_lo + (eta_hi - eta_lo) * v)
    return PhasePoint(xi=p.xi[0], eta=p.eta[0]) if one else p
