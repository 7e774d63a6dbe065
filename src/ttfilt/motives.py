"""Motivic naming layer.

Expressions over the two generating motives translate structurally into
filtered complexes; all questions about them (supports, classes, hom
dimensions) are answered by the engine on the translated object.  The
translation is a hard-coded dictionary on generators: the base point goes
to the unit, the quadratic extension point to the pure regular module.
Only support-level statements are exposed for tensor expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    FILT,
    _EPS,
    _ETA,
    ChainMap,
    Complex,
    cone,
    cone_beta,
    cone_rho,
    direct_sum_complex,
    fund0,
    shift,
    single,
    tensor_complex,
    twist_complex,
)
from .filtmod import e_label, realize, unit_label
from .functors import fgt_complex, hom_DE, homology, res_complex
from .spectrum import supp


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotiveExpr:
    """Node of a motivic expression.

    op is one of: "R", "C" (generators), "fund0", "cone" (of a named map),
    "twist", "shift", "sum", "tensor".
    """

    op: str
    args: tuple = ()
    param: int = 0
    name: str = ""

    @staticmethod
    def base() -> "MotiveExpr":
        return MotiveExpr("R")

    @staticmethod
    def extension() -> "MotiveExpr":
        return MotiveExpr("C")

    @staticmethod
    def fundamental() -> "MotiveExpr":
        return MotiveExpr("fund0")

    @staticmethod
    def cone_of(name: str) -> "MotiveExpr":
        if name not in ("beta", "rho", "eta", "eps"):
            raise ValueError(f"unknown named map: {name}")
        return MotiveExpr("cone", name=name)

    def twist(self, i: int) -> "MotiveExpr":
        return MotiveExpr("twist", (self,), i)

    def shift(self, n: int) -> "MotiveExpr":
        return MotiveExpr("shift", (self,), n)

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        return MotiveExpr("sum", (self, other))

    def __mul__(self, other: "MotiveExpr") -> "MotiveExpr":
        return MotiveExpr("tensor", (self, other))


def _cone_named(name: str) -> Complex:
    if name == "beta":
        return cone_beta()
    if name == "rho":
        return cone_rho()
    unit = single(FILT, realize(unit_label(0)))
    ext = single(FILT, realize(e_label(0, 0)))
    if name == "eta":
        return cone(ChainMap.of(unit, ext, {0: _ETA}))
    if name == "eps":
        return cone(ChainMap.of(ext, unit, {0: _EPS}))
    raise ValueError(f"unknown named map: {name}")


def to_filtered(e: MotiveExpr) -> Complex:
    """Structural translation into a filtered complex."""
    if e.op == "R":
        return single(FILT, realize(unit_label(0)))
    if e.op == "C":
        return single(FILT, realize(e_label(0, 0)))
    if e.op == "fund0":
        return fund0()
    if e.op == "cone":
        return _cone_named(e.name)
    if e.op == "twist":
        return twist_complex(to_filtered(e.args[0]), e.param)
    if e.op == "shift":
        return shift(to_filtered(e.args[0]), e.param)
    if e.op == "sum":
        return direct_sum_complex(to_filtered(e.args[0]), to_filtered(e.args[1]))
    if e.op == "tensor":
        return tensor_complex(to_filtered(e.args[0]), to_filtered(e.args[1]))
    raise ValueError(f"malformed expression: {e.op}")


# ---------------------------------------------------------------------------
# Cohomology and realizations
# ---------------------------------------------------------------------------


def motivic_cohomology(n: int, m: int) -> int:
    """Dimension of the weight-m cohomology of the base point in degree n."""
    unit = single(FILT, realize(unit_label(0)))
    return hom_DE(unit, twist_complex(unit, m)).get(n, 0)


@dataclass(frozen=True)
class RealizationResult:
    kind: str
    homology_splits: dict | None = None
    dims: dict | None = None
    homology_dims: dict | None = None
    support_shadow: frozenset | None = None


def realization(name: str, e: MotiveExpr) -> RealizationResult:
    """Support- or homology-level shadows of the three classical realizations."""
    x = to_filtered(e)
    if name == "etale":
        return RealizationResult("etale", homology_splits=homology(fgt_complex(x)))
    if name == "base_change":
        z = res_complex(fgt_complex(x))
        dims = {n: z.dim(n) for n in z.degrees()}
        hdims = {}
        for n in z.degrees():
            h = z.dim(n) - z.diff(n).rank() - z.diff(n + 1).rank()
            if h:
                hdims[n] = h
        return RealizationResult("base_change", dims=dims, homology_dims=hdims,
                                 support_shadow=supp(x) & {"N", "Ns"})
    if name == "real":
        return RealizationResult("real", support_shadow=supp(x) & {"L", "M"})
    raise ValueError(f"unknown realization: {name}")
