"""Dimension values with cutoff censoring, and the report records."""

from __future__ import annotations

from typing import NamedTuple


class Dim(NamedTuple):
    """An exact value (censored=False) or a certified lower bound
    "actual >= value" (censored=True, from hitting a cutoff)."""

    value: int
    censored: bool = False

    def __str__(self):
        return f">= {self.value}" if self.censored else str(self.value)

    def to_json(self):
        return {"value": self.value, "censored": self.censored}


def dim_max(values: list[Dim]) -> Dim:
    """Max of dimension values; censored wins ties upward."""
    if not values:
        raise ValueError("empty maximum")
    best = values[0]
    for d in values[1:]:
        if (d.value, d.censored) > (best.value, best.censored):
            best = d
    return best


class DimensionReport:
    """A dimension with how it was obtained; a plain class, as callers extend
    its lists and rename its quantity."""

    def __init__(self, quantity: str, dim: Dim, cutoff: int, breakdown: dict | None = None,
                 assumptions: list | None = None, caveats: list | None = None):
        if dim.value > cutoff and not dim.censored:
            raise ValueError("exact value above cutoff is inconsistent")
        self.quantity = quantity  # pd_F | id_F | gldim_F | fd_F | pd | gldim | fd | id
        self.dim = dim
        self.cutoff = cutoff
        self.breakdown = {} if breakdown is None else breakdown
        self.assumptions = [] if assumptions is None else assumptions
        self.caveats = [] if caveats is None else caveats

    def to_json(self):
        return {
            "quantity": self.quantity,
            "value": self.dim.value,
            "censored": self.dim.censored,
            "cutoff": self.cutoff,
            "breakdown": {k: (v.to_json() if isinstance(v, Dim) else v)
                          for k, v in sorted(self.breakdown.items())},
            "assumptions": list(self.assumptions),
            "caveats": list(self.caveats),
        }


VERIFIED = "verified"
VACUOUS = "vacuous-at-cutoff"
VIOLATED = "violated"


def check_leq(lhs: Dim, rhs: Dim) -> str:
    """Three-valued status of "lhs <= rhs".

    "violated" only when both sides are exact; a censored side can confirm
    the inequality (rhs >= bound >= exact lhs) but never refute it.
    """
    if not lhs.censored and not rhs.censored:
        return VERIFIED if lhs.value <= rhs.value else VIOLATED
    if not lhs.censored and rhs.censored:
        return VERIFIED if lhs.value <= rhs.value else VACUOUS
    return VACUOUS


class InequalityCheck(NamedTuple):
    label: str
    lhs: Dim
    rhs: Dim
    status: str

    @staticmethod
    def of(label: str, lhs: Dim, rhs: Dim) -> "InequalityCheck":
        return InequalityCheck(label, lhs, rhs, check_leq(lhs, rhs))

    def to_json(self):
        return {"label": self.label, "lhs": self.lhs.to_json(),
                "rhs": self.rhs.to_json(), "status": self.status}
