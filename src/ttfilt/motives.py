"""Motivic naming layer: the one expression tree and its evaluator.

Every expression over the two generating motives M(R) and M(C), the named
complexes of the `chains` catalog and the cones of the named maps is a
`MotiveExpr` tree; the grammar in `shell` parses text into the same tree.
`to_filtered` translates a tree structurally into a filtered complex, and
all questions about it (supports, classes, hom dimensions) are answered by
the engine on the translated object.  The translation is a hard-coded
dictionary on generators: the base point goes to the unit, the quadratic
extension point to the pure regular module; every other named atom is an
entry of `chains.named`.  Only support-level statements are exposed for
tensor expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    FILT,
    Complex,
    direct_sum_complex,
    dual_complex,
    named,
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

MAPNAMES = ("beta", "rho", "eta", "eps")


@dataclass(frozen=True)
class MotiveExpr:
    """Node of a motivic expression.

    op is one of: "atom" (name with integer params: "0", "1", "E", a
    generator "M(R)"/"M(C)", or a catalog name such as "fund0"), "cone" (of
    the named map in name), "twist", "shift" (one child, one param),
    "dual" (one child), "sum", "tensor" (two children).
    """

    op: str
    name: str = ""          # atom/cone identifier
    params: tuple = ()      # integer parameters
    args: tuple = ()        # child expressions

    @staticmethod
    def base() -> "MotiveExpr":
        return MotiveExpr("atom", "M(R)")

    @staticmethod
    def extension() -> "MotiveExpr":
        return MotiveExpr("atom", "M(C)")

    @staticmethod
    def fundamental() -> "MotiveExpr":
        return MotiveExpr("atom", "fund0")

    @staticmethod
    def cone_of(name: str) -> "MotiveExpr":
        if name not in MAPNAMES:
            raise ValueError(f"unknown named map: {name}")
        return MotiveExpr("cone", name)

    def twist(self, i: int) -> "MotiveExpr":
        return MotiveExpr("twist", params=(i,), args=(self,))

    def shift(self, n: int) -> "MotiveExpr":
        return MotiveExpr("shift", params=(n,), args=(self,))

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        return MotiveExpr("sum", args=(self, other))

    def __mul__(self, other: "MotiveExpr") -> "MotiveExpr":
        return MotiveExpr("tensor", args=(self, other))


GENERATORS = {"M(R)": unit_label(0), "M(C)": e_label(0, 0)}
# atoms 1(n) and E(l, m): one indecomposable, named by its label
_LABELS = {"1": unit_label, "E": e_label}


def to_filtered(e: MotiveExpr) -> Complex:
    """Structural translation into a filtered complex."""
    if e.op == "atom":
        if e.name == "0":
            return Complex(FILT, 0, (), ())
        if e.name in _LABELS:
            return single(FILT, realize(_LABELS[e.name](*e.params)))
        if e.name in GENERATORS:
            return single(FILT, realize(GENERATORS[e.name]))
        return named(e.name, *e.params)
    if e.op == "cone":
        return named("cone" + e.name)
    if e.op == "twist":
        return twist_complex(to_filtered(e.args[0]), e.params[0])
    if e.op == "shift":
        return shift(to_filtered(e.args[0]), e.params[0])
    if e.op == "dual":
        return dual_complex(to_filtered(e.args[0]))
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
