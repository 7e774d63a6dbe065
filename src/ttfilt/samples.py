"""Seeded random generators for labels, formal sums, modules and complexes.

Used by the randomized test suites; every generator takes an explicit
random.Random so runs are reproducible.  The samplers built on these
(scrambled modules, chain maps and grammar trees) live in tests/helpers.py.
"""

from __future__ import annotations

import random
from typing import Optional

from .gf2 import BitMatrix, C2Module, LinearSystem
from .chains import C2, FILT, Complex, _hom_block, build_complex, validate_complex
from .filtmod import FormalSum, IndecLabel, e_label, realize_sum, unit_label


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
