"""The table of checks: what each CLI battery computes on its units and the
bound on each column of its report.

A battery pairs a function of residuals with the ordered checks on the columns
of a row.  Its function takes a stack of units, phase points (see PhasePoint),
flow specs (see FlowSpec) or the times of a flow grid, and returns one array
per column in report order, entry i the row of unit i.  A "passed" entry is
the row's own verdict beyond its checks (the theorem's, or a projection step
that did not fail), and the "error" of a flow or brackets battery the one
error line naming its failed flow, or None.  The CLI and the acceptance
tests both read this table, so a bound is stated once.

A battery names its function by module and name, and imports and looks it up
at each call: a command compiles only the modules its own battery runs, and a
function patched in its module (by a test or a tracer) is the one called.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable


@dataclass(frozen=True)
class Check:
    """A row passes when ``row[column] <= bound``, or, for a lower bound, when
    ``row[column] > bound``."""

    column: str
    bound: float
    lower: bool = False

    def holds(self, row: dict) -> bool:
        value = row[self.column]
        return value > self.bound if self.lower else value <= self.bound


def _deferred(module: str, name: str, **options) -> Callable[..., dict]:
    """The function `name` of the submodule `module`, imported and looked up at
    each call, with the keyword options bound (the flow battery's method)."""

    def residuals(*args, **kwargs) -> dict:
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **options, **kwargs)

    return residuals


@dataclass(frozen=True)
class Battery:
    residuals: Callable[..., dict]  # one array per column over a stack of units
    checks: tuple[Check, ...]  # in report column order
    unit: str = "point"  # the report's unit column: "point", "spec" or "t"


BATTERIES = {
    "lax-check": Battery(_deferred("lax", "structure_residuals"), (
        Check("hermiticity", 1e-12),
        Check("det_minus_one", 1e-8),
        Check("min_eigenvalue", 0.0, lower=True),
        Check("pairing", 1e-8),
        Check("trace_minus_2h", 1e-12),
        Check("commutation", 1e-10),
    )),
    "duality": Battery(_deferred("duality", "identity_residuals"), (
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
        # max_a |T1 - T2 - T3| / (|T1| + |T2| + |T3|) over the identity's three
        # terms, each rounded relative to its modulus (w z_hat through the
        # eigenvectors) as in re_z_sum: c eps, c <= 21400 over n <= 8, four
        # couplings and seeds 1-2000, 3.8e5 at n = 9..12.  The terms grow like
        # sinh(2 theta_hat)^2; an absolute residual failed most points at n >= 9.
        Check("quadratic_identity", 1e-8),
    )),
    "scatter": Battery(_deferred("scattering", "identity_residuals"), (
        Check("sum_identity", 1e-9),
        Check("minor_route_plus", 1e-9),
        Check("minor_route_minus", 1e-9),
        Check("scattering_consistency", 1e-9),
        Check("composite_route", 1e-12),
    )),
    "brackets": Battery(_deferred("brackets", "symplectic_residuals"), (
        Check("action_action", 1e-5),
        Check("angle_angle", 1e-5),
        Check("cross_deviation", 1e-5),
        Check("antisymplectic", 1e-4),
        Check("flow_symplectic", 1e-4),
    )),
    # the asymptotics command, one battery per --kind
    "asymptotics-exponential": Battery(
        # max_j |p_j - p_j(factors)| / |p_j| of the weighted least-squares
        # recovery (asymptotics._p_least_squares): the neglected third-order
        # terms leave about eps_j(t_0)^2 relative at the first time t_0, and
        # the eigensolver's noise eps kappa / |eps_j(t_0)|; on the default
        # grid, seeds 0-399, at most 1.14e-5 at n <= 8 and 6.30e-4 at n <= 16
        _deferred("asymptotics", "exponential_summary"),
        (Check("p_recovery_rel_err", 1e-3),), unit="spec",
    ),
    "asymptotics-linear": Battery(_deferred("asymptotics", "linear_summary"), (), unit="spec"),
    # the flow command, one battery per --method: a point over the times of a grid
    "flow-both": Battery(_deferred("dynamics", "flow_residuals", method="both"), (
        Check("propagator_gap", 1e-6),  # RK against projection, per time
    ), unit="t"),
    "flow-projection": Battery(
        _deferred("dynamics", "flow_residuals", method="projection"), (), unit="t"
    ),
    "flow-runge-kutta": Battery(
        _deferred("dynamics", "flow_residuals", method="runge-kutta"), (), unit="t"
    ),
}
