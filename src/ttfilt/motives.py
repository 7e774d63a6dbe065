"""Motivic naming layer: the one expression tree and its evaluator.

Every expression over the two generating motives M(R) and M(C), the named
complexes of the `chains` catalog and the cones of the named maps is a
`MotiveExpr` tree, a plain named tuple; the grammar in `shell` parses text
into the same tree.  A label atom becomes an `IndecLabel` in `_atom_label`
only, so the length of E(l, m) is checked there and nowhere else.
`to_filtered` translates a tree structurally into a filtered complex, and
realizations are answered by the engine on the translated object.  Two
planners read the tree instead: `expr_support` computes supports (and so
classes and ideal membership), with label atoms in closed form and residue
tests on the other leaves only, and `expr_labels` gives the degree and the
labels of a tree of label atoms by label arithmetic, so that tensor, dual
and hom of it evaluate nothing and decompose of it can take the identity
as its certificate.  The translation is a hard-coded dictionary on
generators: the base point goes to the unit, the quadratic extension point
to the pure regular module; the other atoms are the `CATALOG_ATOMS` of
`chains.named`.  Only support-level statements are exposed for tensor
expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
from .filtmod import _CACHE_SIZE, FormalSum, IndecLabel, dual_labels, e_label, realize, tensor_labels, unit_label
from .functors import betti, fgt_complex, hom_DE, homology, res_complex
from .spectrum import PRIMES, check_support, label_support, supp


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

MAPNAMES = ("beta", "rho", "eta", "eps")


class MotiveExpr(NamedTuple):
    """Node of a motivic expression.

    op is one of: "atom" (name with integer params: "0", "1", "E", a
    generator "M(R)"/"M(C)", or a catalog name such as "fund0"), "cone" (of
    the named map in name), "twist", "shift" (one child, one param),
    "dual" (one child), "sum", "tensor" (two children).  Plain data with
    no builders: trees are written as MotiveExpr(...) or read by
    shell.parse, and a + b of two trees is the tuple concatenation.
    """

    op: str
    name: str = ""          # atom/cone identifier
    params: tuple = ()      # integer parameters
    args: tuple = ()        # child expressions


GENERATORS = {"M(R)": unit_label(0), "M(C)": e_label(0, 0)}
# the catalog names that are atoms of the grammar; fundl and Lpure take one integer
CATALOG_ATOMS = ("fund0", "T", "conebeta", "conerho", "coneomega", "fundl", "Lpure")
# atoms 1(n) and E(l, m): one indecomposable, named by its label
_LABELS = {"1": unit_label, "E": e_label}


def _atom_label(e: MotiveExpr) -> IndecLabel | None:
    """The label of an atom 1(n), E(l, m), M(R) or M(C); None for any other
    leaf.  Here grammar text becomes a label, so the length is checked here:
    ValueError for E(l, m) with l < 0."""
    if e.op == "atom" and e.name in _LABELS:
        if e.name == "E" and e.params[0] < 0:
            raise ValueError("length must be nonnegative")
        return _LABELS[e.name](*e.params)
    return GENERATORS.get(e.name) if e.op == "atom" else None


def to_filtered(e: MotiveExpr) -> Complex:
    """Structural translation into a filtered complex."""
    if e.op == "atom":
        if e.name == "0":
            return Complex(FILT, 0, (), ())
        if (lab := _atom_label(e)) is not None:
            return single(FILT, realize(lab))
        if e.name in CATALOG_ATOMS:
            return named(e.name, *e.params)
        raise ValueError(f"unknown atom: {e.name}")
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


def expr_labels(e: MotiveExpr) -> tuple[int, FormalSum] | None:
    """(degree, labels) of to_filtered(e), read off a tree of label atoms and
    0 under twist, shift, dual, + and * by filtmod's label arithmetic: shift
    moves the degree, dual negates it, * adds degrees, and 0 is in degree 0.
    None for a catalog atom, a cone or a sum in two degrees.  Reading stops
    at the first None, left to right, so a planned tree evaluates without
    error and any error raised here is the one to_filtered raises."""
    if e.op == "atom" and e.name == "0":
        return 0, FormalSum(())
    if (lab := _atom_label(e)) is not None:
        return 0, FormalSum((lab,))
    if e.op not in ("twist", "shift", "dual", "sum", "tensor"):
        return None
    planned = []
    for arg in e.args:
        if (p := expr_labels(arg)) is None:
            return None
        planned.append(p)
    (d, fs), (d2, gs) = planned[0], planned[-1]
    if e.op == "twist":
        return d, tensor_labels(fs, FormalSum((unit_label(e.params[0]),)))
    if e.op == "shift":
        return d + e.params[0], fs
    if e.op == "dual":
        return -d, dual_labels(fs)
    if e.op == "tensor":
        return d + d2, tensor_labels(fs, gs)
    return (d2 if fs.is_zero() else d, fs + gs) if d == d2 or fs.is_zero() or gs.is_zero() else None


def expr_support(e: MotiveExpr) -> frozenset:
    """Support of to_filtered(e), computed on the tree.

    Support is a support datum, so
      - supp(a + b) = supp a | supp b and supp(a * b) = supp a & supp b;
      - twist, shift and dual leave the support unchanged.
    A label atom (1(n), E(l,m), M(R), M(C)) takes the closed form
    spectrum.label_support of its label, which builds no complex, and
    fundl(l) and Lpure(n) are read off the name:
      - fundl(l) is the complex of the admissible short exact sequence
        1(l) -> E(l,0) -> 1(0) (filtmod.is_admissible holds on its maps), so
        it is acyclic, zero in the derived category: its support is empty;
      - Lpure(n) (x) Lpure(-n) = 1(0) as pwz is a tensor functor (verify's
        invertible/n1 and /n2 check the plain case), so by the rule for
        a * b the support of Lpure(n) contains that of 1(0): all six primes.
    Residue tests run only on the other leaves (the catalog atoms without a
    parameter, 0 and the cones), each through spectrum.supp on its own
    evaluated complex, memoized by the leaf.  Every leaf is read, left to
    right, even after an empty support has decided a product, so that an
    invalid leaf raises as it does when the whole tree is evaluated.  No
    tensor product is built.  The result passes the specialization-closed
    check once more.
    """
    return check_support(_tree_support(e))


def _tree_support(e: MotiveExpr) -> frozenset:
    if (lab := _atom_label(e)) is not None:
        return label_support(lab)
    if e.op == "atom" and e.name == "fundl":
        to_filtered(e)  # raises for l < 1; fund_seq is built once per l, so a repeat costs a lookup
        return frozenset()
    if e.op == "atom" and e.name == "Lpure":
        return frozenset(PRIMES)
    if e.op in ("atom", "cone"):
        return _leaf_support(e)
    if e.op in ("twist", "shift", "dual"):
        return _tree_support(e.args[0])
    if e.op == "sum":
        return _tree_support(e.args[0]) | _tree_support(e.args[1])
    if e.op == "tensor":
        return _tree_support(e.args[0]) & _tree_support(e.args[1])
    raise ValueError(f"malformed expression: {e.op}")


@lru_cache(maxsize=_CACHE_SIZE)
def _leaf_support(leaf: MotiveExpr) -> frozenset:
    return supp(to_filtered(leaf))


# ---------------------------------------------------------------------------
# Cohomology and realizations
# ---------------------------------------------------------------------------


def motivic_cohomology(n: int, m: int) -> int:
    """Dimension of the weight-m cohomology of the base point in degree n, by
    hom_DE: so `verify` checks the closed form `functors.hom_modules` on units."""
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
    if name == "etale":
        return RealizationResult("etale", homology_splits=homology(fgt_complex(to_filtered(e))))
    if name == "base_change":
        z = res_complex(fgt_complex(to_filtered(e)))
        dims = {n: z.dim(n) for n in z.degrees()}
        return RealizationResult("base_change", dims=dims, homology_dims=betti(z),
                                 support_shadow=expr_support(e) & {"N", "Ns"})
    if name == "real":
        return RealizationResult("real", support_shadow=expr_support(e) & {"L", "M"})
    raise ValueError(f"unknown realization: {name}")
