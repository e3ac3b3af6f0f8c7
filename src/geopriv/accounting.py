"""Privacy budget types, conversions, composition rules, and a consumption
ledger that audits the internal splits of composite mechanisms."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Union

from .geometry import _positive, _probability


class BudgetError(ValueError):
    """Raised when ledger entries overspend or fail to close a declared budget."""


def _nonnegative(**values: float) -> None:
    """Refuse a negative, infinite or NaN budget parameter."""
    for name, v in values.items():
        if not 0 <= v < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {v}")


@dataclass(frozen=True)
class GpBudget:
    """Geo-privacy budget: eps is the privacy loss per unit distance.

    delta should stay below 1; a delta >= 1 is accepted but flagged with a
    warning because the guarantee is then vacuous.
    """

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        _nonnegative(eps=self.eps, delta=self.delta)
        if self.delta >= 1:
            warnings.warn(
                f"delta={self.delta} >= 1 gives a vacuous guarantee", stacklevel=2
            )


@dataclass(frozen=True)
class CgpBudget:
    """Concentrated geo-privacy budget: rho is the loss per unit distance squared."""

    rho: float

    def __post_init__(self):
        _nonnegative(rho=self.rho)


@dataclass(frozen=True)
class RelaxedGpBudget:
    """Geo-privacy budget restricted to input pairs within distance dist_cap."""

    eps: float
    delta: float
    dist_cap: float

    def __post_init__(self):
        _nonnegative(eps=self.eps)
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        _positive("dist_cap", self.dist_cap)


def gp_to_cgp(eps: float) -> CgpBudget:
    """A pure eps-GP mechanism is also (eps^2 / 2)-CGP."""
    _nonnegative(eps=eps)
    return CgpBudget(0.5 * eps * eps)


def cgp_to_relaxed_gp(rho: float, delta: float, dist_cap: float) -> RelaxedGpBudget:
    """A rho-CGP mechanism is (eps, delta)-GP for inputs within dist_cap, with
    ``eps = rho * dist_cap + 2 * sqrt(rho * log(1/delta))``."""
    _nonnegative(rho=rho)
    _probability("delta", delta)
    _positive("dist_cap", dist_cap)
    eps = rho * dist_cap + 2.0 * math.sqrt(rho * math.log(1.0 / delta))
    return RelaxedGpBudget(eps, delta, dist_cap)


def matched_gp_budget(rho: float, delta: float, min_eps_dist: float = 10.0) -> float:
    """GP budget matched to a CGP budget rho for head-to-head comparisons.

    Returns the unique eps solving ``eps = rho * (min_eps_dist / eps)
    + 2 * sqrt(rho * log(1/delta))``, i.e. the smallest eps whose relaxed-GP
    distance cap Delta = min_eps_dist / eps still satisfies
    eps * Delta = min_eps_dist.  Closed form:
    ``sqrt(rho * min_eps_dist + rho * log(1/delta)) + sqrt(rho * log(1/delta))``.
    """
    _positive("rho", rho)
    _probability("delta", delta)
    _positive("min_eps_dist", min_eps_dist)
    tail = rho * math.log(1.0 / delta)
    eps = math.sqrt(rho * min_eps_dist + tail) + math.sqrt(tail)
    if eps == math.inf:
        raise ValueError(f"the GP budget matched to rho={rho} overflows")
    return eps


def compose_cgp(budgets: Iterable[CgpBudget]) -> CgpBudget:
    """Adaptive composition for CGP: rates add."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("cannot compose an empty list of budgets")
    return CgpBudget(sum(b.rho for b in budgets))


def compose_gp(budgets: Iterable[GpBudget]) -> GpBudget:
    """Basic composition for GP: both eps and delta add.

    Emits a warning (via GpBudget) when the composed delta reaches 1.
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("cannot compose an empty list of budgets")
    return GpBudget(sum(b.eps for b in budgets), sum(b.delta for b in budgets))


class BudgetLedger:
    """Audit record for the internal budget splits of a composite mechanism.

    Entries are (label, amount) pairs in the declared budget's rate unit
    (rho for CGP, eps for GP).  The ledger is advisory: it checks that the
    consumed total never exceeds the declared rate and that, on close, the
    splits sum to the declaration within 1e-12 relative tolerance.
    """

    REL_TOL = 1e-12
    ABS_TOL = 1e-15

    def __init__(self, declared: Union[GpBudget, CgpBudget]):
        if not isinstance(declared, (GpBudget, CgpBudget)):
            raise ValueError(f"declared budget must be GpBudget or CgpBudget, got {declared!r}")
        self.declared = declared
        self.entries: list[tuple[str, float]] = []

    @property
    def declared_rate(self) -> float:
        if isinstance(self.declared, CgpBudget):
            return self.declared.rho
        return self.declared.eps

    @property
    def total(self) -> float:
        return sum(amount for _, amount in self.entries)

    def charge(self, label: str, amount: float) -> None:
        if not 0 <= amount < math.inf:
            raise BudgetError(f"cannot charge {amount} for {label!r}: an amount must be nonnegative and finite")
        new_total = self.total + amount
        cap = self.declared_rate
        if new_total > cap * (1.0 + self.REL_TOL) + self.ABS_TOL:
            raise BudgetError(
                f"charging {amount} for {label!r} overspends the declared rate "
                f"{cap} (already consumed {self.total})"
            )
        self.entries.append((label, float(amount)))

    def close(self) -> None:
        """Assert the consumed total equals the declaration (1e-12 relative)."""
        if not math.isclose(
            self.total, self.declared_rate, rel_tol=self.REL_TOL, abs_tol=self.ABS_TOL
        ):
            raise BudgetError(
                f"ledger total {self.total} does not close the declared rate "
                f"{self.declared_rate}"
            )
