"""Seeded random generators for modules, complexes and chain maps.

Used by the randomized test suites; every generator takes an explicit
random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from .gf2 import BitMatrix, C2Module, LinearSystem
from .chains import (
    C2,
    FILT,
    NAMED_PARAM,
    ChainMap,
    Complex,
    _hom_block,
    build_complex,
    chain_map_basis,
    validate_complex,
)
from .filtmod import FiltModule, FormalSum, IndecLabel, e_label, realize_sum, unit_label
from .motives import CATALOG_ATOMS, GENERATORS, MAPNAMES, MotiveExpr, to_filtered


def random_label(rng: random.Random, max_l: int = 3, weight_span: tuple[int, int] = (-2, 2)) -> IndecLabel:
    lo, hi = weight_span
    if rng.random() < 0.4:
        return unit_label(rng.randint(lo, hi))
    return e_label(rng.randint(0, max_l), rng.randint(lo, hi))


def random_formal_sum(rng: random.Random, max_summands: int = 6, **kw) -> FormalSum:
    n = rng.randint(1, max_summands)
    return FormalSum.of(*(random_label(rng, **kw) for _ in range(n)))


def random_invertible(rng: random.Random, n: int) -> BitMatrix:
    while True:
        mat = BitMatrix(n, n, tuple(rng.getrandbits(n) for _ in range(n)))
        if mat.inverse() is not None:
            return mat


def scrambled_module(rng: random.Random, fs: FormalSum) -> FiltModule:
    """Realize a formal sum and transport it along a random basis change."""
    a = realize_sum(fs)
    if a.dim == 0:
        return a
    u = random_invertible(rng, a.dim)
    uinv = u.inverse()
    sigma = u.mul(a.module.sigma).mul(uinv)
    layers = [lay.map_through(u) for lay in a.layers]
    return FiltModule(C2Module(a.dim, sigma), a.weights, tuple(layers))


def random_c2_module(rng: random.Random, max_dim: int = 4) -> C2Module:
    a = rng.randint(0, max_dim // 2)
    b = rng.randint(0, (max_dim - a) // 2)
    if a + b == 0:
        a = 1
    return C2Module.standard(a, b)


def _random_in_hom(rng: random.Random, kind, src, tgt, prev: Optional[BitMatrix] = None) -> BitMatrix:
    """Random element of the hom space, composing to zero with prev if given."""
    system = LinearSystem()
    d = _hom_block(system, kind, src, tgt)
    if prev is not None:
        system.equation([(prev, d, None)])
    flat = 0
    for v in system.kernel():
        if rng.getrandbits(1):
            flat ^= v
    return system.matrix(d, flat)


def random_complex(rng: random.Random, kind: str, n_degrees: int = 3,
                   term_gen=None, d_min: int = 0) -> Complex:
    """Random bounded complex: terms from term_gen, differentials sampled
    uniformly from the subspace of maps composing to zero with the previous one."""
    if term_gen is None:
        if kind == C2:
            term_gen = lambda: random_c2_module(rng)
        elif kind == FILT:
            term_gen = lambda: realize_sum(random_formal_sum(rng, max_summands=2, max_l=2))
        else:
            term_gen = lambda: rng.randint(0, 3)
    terms = {d_min + i: term_gen() for i in range(n_degrees)}
    diffs: dict[int, BitMatrix] = {}
    prev = None  # differential out of degree n-1
    for n in range(d_min + 1, d_min + n_degrees):
        prev = diffs[n] = _random_in_hom(rng, kind, terms[n], terms[n - 1], prev)
    x = build_complex(kind, terms, diffs)
    validate_complex(x)
    return x


def random_chain_map(rng: random.Random, x: Complex, y: Complex) -> ChainMap:
    """Random chain map x -> y, sampled uniformly from the hom space."""
    basis = chain_map_basis(x, y)
    f = ChainMap.of(x, y, {})
    for b in basis:
        if rng.getrandbits(1):
            f = f.add(b)
    f.validate()
    return f


# the grammar's atoms without parameters, in the order the seeded draws rely on
_CONSTANT_LEAVES = ("0", *GENERATORS, *(a for a in CATALOG_ATOMS if a not in NAMED_PARAM))


def random_expr(rng: random.Random, depth: int = 3, max_dim: int = 16) -> MotiveExpr:
    """A grammar tree with at most `depth` operator levels over small leaves,
    redrawn until its evaluated complex has total dimension at most max_dim."""
    while True:
        e = _random_tree(rng, depth)
        if to_filtered(e).total_dim() <= max_dim:
            return e


def _random_tree(rng: random.Random, depth: int) -> MotiveExpr:
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    op = rng.choice(("sum", "tensor", "twist", "shift", "dual"))
    if op in ("sum", "tensor"):
        return MotiveExpr(op, args=(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))
    if op == "dual":
        return MotiveExpr(op, args=(_random_tree(rng, depth - 1),))
    return MotiveExpr(op, params=(rng.randint(-3, 3),), args=(_random_tree(rng, depth - 1),))


def _random_leaf(rng: random.Random) -> MotiveExpr:
    kind = rng.randrange(8)
    if kind == 0:
        return MotiveExpr("atom", "1", (rng.randint(-3, 3),))
    if kind <= 2:
        return MotiveExpr("atom", "E", (rng.randint(0, 3), rng.randint(-3, 3)))
    if kind == 3:
        return MotiveExpr("atom", rng.choice([a for a in CATALOG_ATOMS if a in NAMED_PARAM]), (rng.randint(1, 2),))
    if kind == 4:
        return MotiveExpr("cone", rng.choice(MAPNAMES))
    return MotiveExpr("atom", rng.choice(_CONSTANT_LEAVES))
