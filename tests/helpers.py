"""Test oracles: brute force, and the slow paths that fast paths replace.

The brute-force helpers enumerate vectors or matrices exhaustively, so
they are independent of the engine's linear-algebra paths and only usable
for tiny dimensions; that is the point.  `weight_zero_part` is the
construction `rwz` used before it stopped building the filtered tensor,
and `hom_DE_by_single_solves` is `hom_DE` as it was before it read all the
coefficients landing in one hom space off a single elimination.
"""

from __future__ import annotations


from ttfilt.gf2 import BitMatrix, LinearSystem, Subspace, induced_map, quotient_module
from ttfilt.chains import C2, Complex, build_complex, injres_trunc, tensor_complex
from ttfilt.filtmod import hom_basis
from ttfilt.functors import max_weight, min_weight


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


def _express(basis: list[BitMatrix], target: BitMatrix):
    """Coefficients of target in a basis of matrices, or None."""
    system = LinearSystem()
    c = system.block(1, len(basis))
    b_mat = BitMatrix(len(basis), target.rows * target.cols, tuple(m.flat() for m in basis))
    system.equation([(None, c, b_mat.transpose().data)], BitMatrix(1, b_mat.cols, (target.flat(),)))
    return system.solve()


def hom_DE_by_single_solves(x: Complex, y: Complex) -> dict[int, int]:
    """Derived hom dimensions, with one linear solve per component of d(g)."""
    if x.is_zero() or y.is_zero():
        return {}
    j = max_weight(y) - min_weight(x) + 1
    if j <= 0:
        return {}
    z = tensor_complex(injres_trunc(j), y)
    hom_bases = {(i, k): hom_basis(x.term(i), z.term(k)) for i in x.degrees() for k in z.degrees()}
    lo, hi = z.d_min - x.d_max, z.d_max - x.d_min
    dims, mats = {}, {}
    for n in range(lo, hi + 1):
        pairs = [(i, i + n) for i in x.degrees() if z.d_min <= i + n <= z.d_max]
        dims[n] = sum(len(hom_bases[p]) for p in pairs)
    for n in range(lo + 1, hi + 1):
        src_pairs = [(i, i + n) for i in x.degrees() if z.d_min <= i + n <= z.d_max]
        tgt_pairs = [(i, i + n - 1) for i in x.degrees() if z.d_min <= i + n - 1 <= z.d_max]
        tgt_index, off = {}, 0
        for p in tgt_pairs:
            tgt_index[p] = off
            off += len(hom_bases[p])
        rows_out = []
        for (i, k) in src_pairs:
            for g in hom_bases[(i, k)]:
                col = 0
                if (i, k - 1) in tgt_index:
                    coeff = _express([b.matrix for b in hom_bases[(i, k - 1)]], z.diff(k).mul(g.matrix))
                    col |= coeff << tgt_index[(i, k - 1)]
                if (i + 1, k) in tgt_index:
                    coeff = _express([b.matrix for b in hom_bases[(i + 1, k)]], g.matrix.mul(x.diff(i + 1)))
                    col |= coeff << tgt_index[(i + 1, k)]
                rows_out.append(col)
        mats[n] = BitMatrix(len(rows_out), dims.get(n - 1, 0), tuple(rows_out)).transpose()
    out = {}
    for n in range(lo, hi + 1):
        d_out = mats.get(n, BitMatrix.zero(0, dims.get(n, 0)))
        d_in = mats.get(n + 1, BitMatrix.zero(dims.get(n, 0), 0))
        h = dims[n] - d_out.rank() - d_in.rank()
        if h:
            out[-n] = h
    return out
