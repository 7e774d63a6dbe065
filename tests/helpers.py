"""Test oracles: brute force, and the slow paths that fast paths replace.

The brute-force helpers enumerate vectors or matrices exhaustively, so
they are independent of the engine's linear-algebra paths and only usable
for tiny dimensions; that is the point.  `weight_zero_part` is the
construction `rwz` used before it stopped building the filtered tensor.
"""

from __future__ import annotations


from ttfilt.gf2 import BitMatrix, Subspace, induced_map, quotient_module
from ttfilt.chains import C2, Complex, build_complex


def brute_rank(entries: list[list[int]]) -> int:
    """Rank as the log2 of the number of distinct row-span elements."""
    rows = [sum((b & 1) << j for j, b in enumerate(r)) for r in entries]
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span).bit_length() - 1


def brute_kernel_vectors(m: BitMatrix) -> set[int]:
    return {v for v in range(1 << m.cols) if m.apply(v) == 0}


def brute_hom_count(src, tgt) -> int:
    """log2 of the number of filtration-preserving equivariant matrices."""
    da, db = src.dim, tgt.dim
    count = 0
    for bits in range(1 << (da * db)):
        mat = BitMatrix(db, da, tuple((bits >> (i * da)) & ((1 << da) - 1) for i in range(db)))
        if mat.mul(src.module.sigma) != tgt.module.sigma.mul(mat):
            continue
        ok = True
        for w in range(src.w_min, src.w_max + 1):
            lay_t = tgt.layer(w)
            for v in src.layer(w).basis.data:
                if not lay_t.contains(mat.apply(v)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    assert count & (count - 1) == 0
    return count.bit_length() - 1


def brute_exact_f2(z: Complex) -> bool:
    """Exactness by exhaustive kernel/image enumeration per degree."""
    for n in range(z.d_min, z.d_max + 1):
        kern = brute_kernel_vectors(z.diff(n).add(BitMatrix.zero(z.diff(n).rows, z.diff(n).cols)))
        d_in = z.diff(n + 1)
        img = {d_in.apply(v) for v in range(1 << d_in.cols)}
        if kern != img:
            return False
    return True


def brute_tate_dim(y: Complex) -> int:
    """Folded kernel-mod-image dimension by exhaustive enumeration."""
    total = y.total_dim()
    if total > 14:
        raise ValueError("too large for the brute-force oracle")
    offs = {}
    off = 0
    for n in y.degrees():
        offs[n] = off
        off += y.dim(n)
    def fold(v: int) -> int:
        out = 0
        for n in y.degrees():
            part = (v >> offs[n]) & ((1 << y.dim(n)) - 1)
            out ^= y.term(n).norm().apply(part) << offs[n]
            if n > y.d_min:
                out ^= y.diff(n).apply(part) << offs[n - 1]
        return out
    kern = {v for v in range(1 << total) if fold(v) == 0}
    img = {fold(v) for v in range(1 << total)}
    k = len(kern).bit_length() - 1
    i = len(img).bit_length() - 1
    return k - i


def weight_zero_part(x: Complex) -> Complex:
    """Degreewise weight-zero subobject of a filtered complex, with the
    restricted differentials: rwz(x) is this part of injres_trunc(j) (x) x."""
    terms = {}
    reps = {}
    for n in x.degrees():
        t = x.term(n)
        mod, rep = quotient_module(t.module, t.layer(0), Subspace.zero(t.dim))
        terms[n] = mod
        reps[n] = rep
    diffs = {}
    for n in x.degrees():
        if n > x.d_min and terms[n].dim and terms[n - 1].dim:
            diffs[n] = induced_map(reps[n], reps[n - 1], Subspace.zero(x.term(n - 1).dim), x.diff(n))
    return build_complex(C2, terms, diffs)
