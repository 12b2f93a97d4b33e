"""The table of checks: what each CLI battery computes at its points and the
bound on each column of its report.

A battery pairs a function of residuals with the ordered checks on the columns
of a row.  A phase-point battery's function takes a point or a stack of points
(see PhasePoint) and returns one array per column, entry i the row of point i;
an asymptotics battery's function returns the row of one flow spec.  The CLI
and the acceptance tests both read this table, so a bound is stated once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import asymptotics, brackets, duality, lax, scattering


@dataclass(frozen=True)
class Check:
    """A row passes when ``row[column] <= bound * tol_scale``, or, for a lower
    bound, when ``row[column] > bound``."""

    column: str
    bound: float
    lower: bool = False

    def holds(self, row: dict, tol_scale: float = 1.0) -> bool:
        value = row[self.column]
        return value > self.bound if self.lower else value <= self.bound * tol_scale


@dataclass(frozen=True)
class Battery:
    residuals: Callable[..., dict]  # a row's columns, over a stack of points or for one spec
    checks: tuple[Check, ...]  # in report column order


BATTERIES = {
    "lax-check": Battery(lax.structure_residuals, (
        Check("hermiticity", 1e-12),
        Check("det_minus_one", 1e-8),
        Check("min_eigenvalue", 0.0, lower=True),
        Check("pairing", 1e-8),
        Check("trace_minus_2h", 1e-12),
        Check("commutation", 1e-10),
    )),
    "duality": Battery(duality.identity_residuals, (
        Check("involution", 1e-7),
        Check("dual_lax_entrywise", 1e-8),
        Check("dual_lax_pushforward", 1e-8),
        # |sum Re z_hat_a - sum Re z_a| / sum |z_a|.  Both routes round each z_a
        # relative to |z_a| (z_hat through the eigenvectors, so with their
        # conditioning), and a sum of n terms adds n eps sum |z_a|: the residual
        # is c n eps, c <= 87 over n <= 7, four couplings and 20 seeds each.
        # |sum Re z_a| is no scale for it: that sum can cancel far below.
        Check("re_z_sum", 1e-10),
        Check("z_closed_form", 1e-8),
        Check("linear_identity", 1e-8),
        Check("quadratic_identity", 1e-8),
    )),
    "scatter": Battery(scattering.identity_residuals, (
        Check("sum_identity", 1e-9),
        Check("minor_route_plus", 1e-9),
        Check("minor_route_minus", 1e-9),
        Check("scattering_consistency", 1e-9),
        Check("composite_route", 1e-12),
    )),
    "brackets": Battery(brackets.symplectic_residuals, (
        Check("action_action", 1e-5),
        Check("angle_angle", 1e-5),
        Check("cross_deviation", 1e-5),
        Check("antisymplectic", 1e-4),
        Check("flow_symplectic", 1e-4),
    )),
}

# Batteries over sampled flow specs, keyed by --kind.  Their rows carry the
# theorem's own verdict under "passed", for the checks that have no column.
ASYMPTOTICS = {
    "exponential": Battery(asymptotics.exponential_summary, (Check("p_recovery_rel_err", 1e-3),)),
    "linear": Battery(asymptotics.linear_summary, ()),
}

FLOW_GAP = Check("propagator_gap", 1e-6)  # RK against projection, per time sample
