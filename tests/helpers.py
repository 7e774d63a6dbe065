"""Test oracles: brute force, and the slow paths that fast paths replace.

The brute-force helpers enumerate vectors or matrices exhaustively, so
they are independent of the engine's linear-algebra paths and only usable
for tiny dimensions; that is the point.  `weight_zero_part` is the
construction `rwz` used before it stopped building the filtered tensor,
`hom_DE_by_single_solves` is the derived hom from a hom complex assembled
by hand (one `hom_basis` per pair of terms, one linear solve per component
of d(g)), which `hom_DE` replaced by the sigma-fixed part of rwz's
weight-zero blocks on dual(x) (x) y, and
`minimize_by_conjugation` is `minimize` as it was before each elimination
became a Schur complement, `rref_by_column_scan` is `BitMatrix.rref`
as it was before it pivoted on lowest set bits, `decompose_by_meets`
is `filtmod.decompose` as it was before it became one persistence
reduction, and `gr_complex_by_placement`, `tensor_diff_by_placement` and
`tensor_map_by_placement` are `gr_complex`, `chains._tensor_diff` and
`tensor_map` as they were before they were assembled from blocks: each
places its blocks by hand at offsets looked up per pair of terms, in
`tensor_layout_at`: `chains.tensor_layout` as it was before one pass over
the pairs of terms laid out every degree at once.  `tensor_layout_by_degrees`
assembles the one-pass layout from it.
`direct_sum_by_weights`, `dual_by_weights`, `tensor_by_weights`,
`weight_ge_by_weights` and `is_valid_by_weights` are the filtered-module operations as they were
before filtrations were stored at their drops: each computes or checks a
layer at every weight of the range.  `realize_sum_by_direct_sum` is
`realize_sum` as it was before the standard model was written down in
closed form, and `validate_two_sided` is `Decomposition.validate` as it
was before it checked only iso and the layer dimensions.
`split_exact_by_solve` is `filtmod._split_exact_equivariant` as it was
before it decided exactness and splitting by ranks: one joint linear solve
for the equivariant retraction and section, and `random_graded_sequence`
draws its inputs.

`realize_by_twist` is `filtmod.realize` as it was before it became the
one-label `realize_sum`.  `hom_DE_unminimized` is `functors.hom_DE` as it
was before it ran on the minimal models of its arguments, and
`reduce_by_rows` is `Subspace.reduce` as it was before it read the pivots
off one int: it visits every basis row.  `decompose_by_vectors`,
`is_valid_by_vectors` and `post_init_by_vectors` are `filtmod.decompose`,
`FiltMorphism.is_valid` and the checks of `FiltModule.__post_init__` as
they were before they mapped and tested whole layers in one product and
one `Subspace.reduce_all`: one `apply` and one `contains` per vector.
`apply`, `reduce` and `contains` are `BitMatrix.apply`, `Subspace.reduce`
and `Subspace.contains`, the map, residue and membership test of one
vector, which only these oracles and the tests take now.
`is_prime_by_trial_division` is `spectrum._is_prime_number` as it was
before it became deterministic Miller-Rabin.

The samplers built on `ttfilt.samples` serve the tests and
scripts/random_stress.py only: `scrambled_module` (a standard model moved
by a random change of basis), `random_chain_map`, `random_expr` (small
grammar trees over every kind of leaf) and `random_module_tree` (the trees
of label atoms that the label planner `motives.expr_labels` reads);
`has_sum_in_two_degrees` says where that planner may give up on a tree.

The hom bases of cells (over `chain_map_basis`, one kernel solve for the
chain maps x -> y), the image of a subspace `map_through`, `find_chain_iso` (a
seeded search that may give up), the truncations, `intersect`, the
weight >= m part `weight_ge`, and the accessors `unit_complex`,
`to_lists`, `entry`, `c2_direct_sum`, `width`, `labels_at`, `is_effective`
and `complement` serve tests only, and so does `gather`, the entry-by-entry
gather that `minimize_by_conjugation` cuts blocks with and that
`split_by_gather`, the oracle of `BitMatrix.split`, is made of.  `check_values` runs the checks that the
gf2 value types, `FiltMorphism` and `IndecLabel` no longer run on construction.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ttfilt.gf2 import (
    BitMatrix,
    C2Module,
    LinearSystem,
    Subspace,
    equivariance_rows,
    induced_map,
    insert_independent,
    kernel_space,
    quotient_module,
)
from ttfilt.chains import (
    C2,
    F2,
    FILT,
    ChainMap,
    Complex,
    MinimalForm,
    _label_dim,
    _offsets,
    _rebuild_term,
    _split_term,
    build_complex,
    cell_is_morphism,
    cell_is_zero,
    dual_complex,
    NAMED_PARAM,
    _hom_block,
    injres_trunc,
    shift,
    signature,
    single,
    tensor_complex,
    validate_complex,
)
from ttfilt.filtmod import (
    REG,
    UNIT,
    Decomposition,
    FiltModule,
    FiltMorphism,
    FormalSum,
    IndecLabel,
    MathEngineError,
    direct_sum,
    e_label,
    pwz_module,
    realize,
    realize_sum,
    unit_label,
)
from ttfilt.functors import _weight_zero_blocks, max_weight, min_weight
from ttfilt.motives import CATALOG_ATOMS, GENERATORS, MAPNAMES, MotiveExpr, to_filtered
from ttfilt.samples import random_invertible


def is_prime_by_trial_division(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_rank(entries: list[list[int]]) -> int:
    """Rank as the log2 of the number of distinct row-span elements."""
    rows = [sum((b & 1) << j for j, b in enumerate(r)) for r in entries]
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span).bit_length() - 1


def rref_by_column_scan(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form by scanning the columns in order: swap a row
    with the column's bit into the next pivot position, clear the column
    from every other row."""
    work = list(m.data)
    pivots = []
    prow = 0
    for col in range(m.cols):
        sel = None
        for r in range(prow, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        for r in range(len(work)):
            if r != prow and ((work[r] >> col) & 1):
                work[r] ^= work[prow]
        pivots.append(col)
        prow += 1
        if prow == len(work):
            break
    return BitMatrix(m.rows, m.cols, tuple(work)), tuple(pivots)


def brute_kernel_vectors(m: BitMatrix) -> set[int]:
    return {v for v in range(1 << m.cols) if apply(m, v) == 0}


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
                if not contains(lay_t, apply(mat, v)):
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
        img = {apply(d_in, v) for v in range(1 << d_in.cols)}
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
            out ^= apply(y.term(n).norm(), part) << offs[n]
            if n > y.d_min:
                out ^= apply(y.diff(n), part) << offs[n - 1]
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
    out = build_complex(C2, terms, diffs)
    validate_complex(out)
    return out


def _express(basis: list[BitMatrix], target: BitMatrix):
    """Coefficients of target in a basis of matrices, or None."""
    system = LinearSystem()
    c = system.block(1, len(basis))
    b_mat = BitMatrix(len(basis), target.rows * target.cols, tuple(m.flat() for m in basis))
    system.equation([(None, c, b_mat.transpose().data)], BitMatrix(1, b_mat.cols, (target.flat(),)))
    return system.solve()


def hom_DE_by_single_solves(x: Complex, y: Complex) -> dict[int, int]:
    """Derived hom dimensions from the hand-assembled hom complex: a
    `hom_basis` from each term of x to each term of injres_trunc(j) (x) y,
    j = max-weight(y) - min-weight(x) + 1, and one linear solve per
    component of d(g)."""
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


def minimize_by_conjugation(x: Complex) -> MinimalForm:
    """`chains.minimize` as it was before its elimination step became a
    Schur complement: each step conjugates the differentials by dense
    matrices P and Q and then restricts by selection matrices.  It keeps the
    old search order too: after each elimination the search restarts from
    the lowest degree not yet seen unit-free, skipping the clean degrees,
    where `minimize` makes one ascending pass."""
    kind = x.kind
    if x.is_zero():
        zc = Complex(kind, 0, (), ())
        return MinimalForm(zc, ChainMap.of(zc, x, {}), ChainMap.of(x, zc, {}), ())

    labels: dict[int, list] = {}
    incl_comps: dict[int, BitMatrix] = {}
    proj_comps: dict[int, BitMatrix] = {}
    diffs: dict[int, BitMatrix] = {}
    for n in x.degrees():
        labs, u = _split_term(kind, x.term(n))[:2]
        labels[n] = list(labs)
        incl_comps[n] = u
        uinv = u.inverse()
        if uinv is None:
            raise MathEngineError("term splitting produced a singular basis change")
        proj_comps[n] = uinv
    for n in x.degrees():
        if n > x.d_min:
            diffs[n] = proj_comps[n - 1].mul(x.diff(n)).mul(incl_comps[n])

    def find_unit_at(n):
        d = diffs[n]
        labs_t, labs_s = labels[n - 1], labels[n]
        offs_t, offs_s = _offsets(kind, labs_t), _offsets(kind, labs_s)
        for i, lt in enumerate(labs_t):
            for j, ls in enumerate(labs_s):
                if lt != ls:
                    continue
                dt = _label_dim(kind, lt)
                block = gather(d, range(offs_t[i], offs_t[i] + dt),
                               range(offs_s[j], offs_s[j] + dt))
                if block.inverse() is not None:
                    return i, j
        return None

    # a degree once verified unit-free can only change when a neighboring
    # elimination touches its differential, so track clean degrees
    clean: set = set()

    def find_unit():
        # lowest differential degree first, then lexicographic (target, source)
        for n in sorted(diffs):
            if n in clean:
                continue
            hit = find_unit_at(n)
            if hit is not None:
                return (n,) + hit
            clean.add(n)
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        n, i, j = hit
        clean.difference_update({n - 1, n, n + 1})
        d = diffs[n]
        labs_t, labs_s = labels[n - 1], labels[n]
        offs_t, offs_s = _offsets(kind, labs_t), _offsets(kind, labs_s)
        dt = _label_dim(kind, labs_t[i])
        t0, s0 = offs_t[i], offs_s[j]
        t_idx = list(range(t0, t0 + dt))
        s_idx = list(range(s0, s0 + dt))
        dim_s = sum(_label_dim(kind, l) for l in labs_s)
        dim_t = sum(_label_dim(kind, l) for l in labs_t)
        other_s = [c for c in range(dim_s) if c not in s_idx]
        other_t = [r for r in range(dim_t) if r not in t_idx]
        a = gather(d, t_idx, s_idx)
        ainv = a.inverse()
        b = gather(d, t_idx, other_s)
        c = gather(d, other_t, s_idx)
        # P = I + E on the source term, E supported on (block rows, other cols)
        ab = ainv.mul(b)
        p_data = list(BitMatrix.identity(dim_s).data)
        for bi, r in enumerate(ab.data):
            add = 0
            for k, col in enumerate(other_s):
                if (r >> k) & 1:
                    add |= 1 << col
            p_data[s_idx[bi]] ^= add
        p_mat = BitMatrix(dim_s, dim_s, tuple(p_data))
        # Q = I + E' on the target term, E' supported on (other rows, block cols)
        ca = c.mul(ainv)
        q_data = list(BitMatrix.identity(dim_t).data)
        for k, row_i in enumerate(other_t):
            add = 0
            for bi in range(dt):
                if entry(ca, k, bi):
                    add |= 1 << t_idx[bi]
            q_data[row_i] ^= add
        q_mat = BitMatrix(dim_t, dim_t, tuple(q_data))
        # conjugate the differentials (P and Q are self-inverse)
        diffs[n] = q_mat.mul(d).mul(p_mat)
        if n + 1 in diffs:
            diffs[n + 1] = p_mat.mul(diffs[n + 1])
        if n - 1 in diffs:
            diffs[n - 1] = diffs[n - 1].mul(q_mat)
        incl_comps[n] = incl_comps[n].mul(p_mat)
        incl_comps[n - 1] = incl_comps[n - 1].mul(q_mat)
        proj_comps[n] = p_mat.mul(proj_comps[n])
        proj_comps[n - 1] = q_mat.mul(proj_comps[n - 1])
        # split off the contractible (L = L') pair and restrict everything
        sel_s = gather(BitMatrix.identity(dim_s), range(dim_s), other_s)
        sel_s_rows = gather(BitMatrix.identity(dim_s), other_s, range(dim_s))
        sel_t = gather(BitMatrix.identity(dim_t), range(dim_t), other_t)
        sel_t_rows = gather(BitMatrix.identity(dim_t), other_t, range(dim_t))
        new_dn = gather(diffs[n], other_t, other_s)
        leak = gather(diffs[n], t_idx, other_s)
        if not leak.is_zero() or not gather(diffs[n], other_t, s_idx).is_zero():
            raise MathEngineError("elimination failed to isolate the unit block")
        diffs[n] = new_dn
        if n + 1 in diffs:
            kept = gather(diffs[n + 1], other_s, range(diffs[n + 1].cols))
            if not gather(diffs[n + 1], s_idx, range(diffs[n + 1].cols)).is_zero():
                raise MathEngineError("incoming differential leaks into eliminated summand")
            diffs[n + 1] = kept
        if n - 1 in diffs:
            kept = gather(diffs[n - 1], range(diffs[n - 1].rows), other_t)
            if not gather(diffs[n - 1], range(diffs[n - 1].rows), t_idx).is_zero():
                raise MathEngineError("outgoing differential leaks from eliminated summand")
            diffs[n - 1] = kept
        incl_comps[n] = incl_comps[n].mul(sel_s)
        incl_comps[n - 1] = incl_comps[n - 1].mul(sel_t)
        proj_comps[n] = sel_s_rows.mul(proj_comps[n])
        proj_comps[n - 1] = sel_t_rows.mul(proj_comps[n - 1])
        del labels[n][j]
        del labels[n - 1][i]
        # zero-dimensional terms keep zero-size matrices; build_complex trims ends

    terms = {n: _rebuild_term(kind, labs) for n, labs in labels.items()}
    live = {n: t for n, t in terms.items() if not cell_is_zero(kind, t)}
    mini = build_complex(kind, live, {n: d for n, d in diffs.items()
                                      if d.rows and d.cols})
    incl = ChainMap.of(mini, x, {n: incl_comps[n] for n in mini.degrees()})
    proj = ChainMap.of(x, mini, {n: proj_comps[n] for n in mini.degrees()})
    labs = tuple(sorted((n, tuple(labels[n])) for n in mini.degrees()))
    return MinimalForm(mini, incl, proj, labs)


def check_values(*values) -> None:
    """ValueError unless every matrix, subspace, module, filtered
    morphism and label reachable from values, through dataclass fields,
    tuples, lists and dicts, is well formed: a matrix has `rows` rows, none
    with a bit past `cols`; a subspace's basis has `ambient` columns; a
    module's sigma is a dim x dim involution; a morphism's matrix is
    target x source; a label is 1(n) with no length or E(l, m) with l >= 0."""
    seen: set[int] = set()

    def walk(v) -> None:
        if isinstance(v, (int, str)) or id(v) in seen:
            return
        seen.add(id(v))
        if isinstance(v, IndecLabel):
            if v.kind not in (UNIT, REG):
                raise ValueError("unknown label kind")
            if v.kind == UNIT and v.l != 0:
                raise ValueError("unit labels carry no length")
            if v.l < 0:
                raise ValueError("length must be nonnegative")
            return
        if isinstance(v, BitMatrix):
            if len(v.data) != v.rows:
                raise ValueError(f"row count mismatch: {len(v.data)} rows stored for {v.rows}")
            if any(r < 0 or r >> v.cols for r in v.data):
                raise ValueError(f"row exceeds column count {v.cols}")
            return
        if isinstance(v, dict):
            children = list(v.values())
        elif isinstance(v, (tuple, list)):
            children = v
        elif dataclasses.is_dataclass(v):
            children = [getattr(v, f.name) for f in dataclasses.fields(v)]
        else:
            children = []
        for child in children:
            walk(child)
        if isinstance(v, Subspace) and v.basis.cols != v.ambient:
            raise ValueError(f"basis width mismatch: {v.basis.cols} columns in ambient {v.ambient}")
        if isinstance(v, C2Module):
            if (v.sigma.rows, v.sigma.cols) != (v.dim, v.dim):
                raise ValueError(f"sigma shape mismatch: {v.sigma.rows} x {v.sigma.cols} in dim {v.dim}")
            if not v.sigma.mul(v.sigma).is_identity():
                raise ValueError("sigma is not an involution")
        if isinstance(v, FiltMorphism) and (v.matrix.rows, v.matrix.cols) != (v.target.dim, v.source.dim):
            raise ValueError("morphism shape mismatch")

    for value in values:
        walk(value)


def unit_complex() -> Complex:
    """The unit 1(0) as a one-term filtered complex in degree 0."""
    return single(FILT, realize(unit_label(0)))


def entry(m: BitMatrix, i: int, j: int) -> int:
    """The entry of m in row i and column j."""
    return (m.data[i] >> j) & 1


def c2_direct_sum(*mods: C2Module) -> C2Module:
    """The direct sum of kC2-modules, in the given order."""
    return C2Module(sum(a.dim for a in mods), BitMatrix.block_diag([a.sigma for a in mods]))


def width(x: Complex) -> int:
    """d_max - d_min, or 0 for the zero complex."""
    return 0 if x.is_zero() else x.d_max - x.d_min


def to_lists(m: BitMatrix) -> list[list[int]]:
    """The entries of m, one list of 0/1 ints per row."""
    return [[entry(m, i, j) for j in range(m.cols)] for i in range(m.rows)]


def gather(m: BitMatrix, rows, cols) -> BitMatrix:
    """The entries of m at the given rows and columns, each list in any order,
    read one entry at a time: the oracle of BitMatrix.split."""
    rows, cols = list(rows), list(cols)
    data = tuple(sum(entry(m, i, j) << k for k, j in enumerate(cols)) for i in rows)
    return BitMatrix(len(rows), len(cols), data)


def split_by_gather(m: BitMatrix, r: range, c: range) -> tuple[BitMatrix, ...]:
    """BitMatrix.split(r, c), each block read through gather."""
    other_r = [i for i in range(m.rows) if i not in r]
    other_c = [j for j in range(m.cols) if j not in c]
    return gather(m, r, c), gather(m, r, other_c), gather(m, other_r, c), gather(m, other_r, other_c)


def labels_at(mf: MinimalForm, n: int) -> tuple:
    """The summand labels of the degree-n term of a minimal form; () outside its range."""
    return dict(mf.labels).get(n, ())


def is_effective(a: FiltModule) -> bool:
    """True iff a has no weight below 0."""
    return a.is_zero() or a.layer(0).is_full()


def complement(s: Subspace) -> Subspace:
    """The complement of s spanned by the coordinates that are not the
    lowest set bit of a basis vector (deterministic)."""
    pivots = {(r & -r).bit_length() - 1 for r in s.basis.data}
    return Subspace.span(s.ambient, [1 << j for j in range(s.ambient) if j not in pivots])


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """Zassenhaus: row-reduce [u|u] for u in the basis of s and [v|0] for v
    in that of t, left half in the low bits; the reduced rows whose left
    half vanishes carry a basis of the intersection on the right."""
    if s.ambient != t.ambient:
        raise ValueError("ambient mismatch")
    n = s.ambient
    rows = tuple(u | (u << n) for u in s.basis.data) + t.basis.data
    red, pivots = BitMatrix(len(rows), 2 * n, rows).rref()
    return Subspace.span(n, (red.data[i] >> n for i, p in enumerate(pivots) if p >= n))


def decompose_by_meets(a: FiltModule) -> Decomposition:
    """`filtmod.decompose` as it was before it became one persistence
    reduction: a closed form in N = 1 + sigma and the layers V_w.  Only the
    drop weights, where V_w != V_{w+1}, carry summands.  For drop weights
    m <= t, each vector y extending N(V_{m+1}) & V_t + N(V_m) & V_{t+1} to a
    basis of N(V_m) & V_t lifts to some e in V_m with N.e = y, and
    (e, sigma.e) spans a summand E(t - m, m).  Each vector extending
    ker N & V_{m+1} + N(V) & V_m to a basis of ker N & V_m spans a summand
    1(m).
    """
    norm = a.module.norm()
    drops = [w for w in range(a.w_min, a.w_max + 1) if a.layer(w).dim > a.layer(w + 1).dim]
    k = len(drops)
    zero = Subspace.zero(a.dim)
    # index i < k stands for the layer at drops[i], index k for the zero layer above
    layers = [a.layer(w) for w in drops] + [zero]
    pushed = [tuple(apply(norm, v) for v in lay.basis.data) for lay in layers]
    images = [Subspace.span(a.dim, vecs) for vecs in pushed]
    meets = {(i, j): intersect(images[i], layers[j]) for i in range(k) for j in range(i + 1, k)}

    def meet(i: int, j: int) -> Subspace:
        """N(layers[i]) & layers[j]: N(layers[i]) itself for j <= i, as it
        lies in layers[i], and zero for j = k."""
        return images[i] if i >= j else meets.get((i, j), zero)

    kernel = kernel_space(norm)
    fixed = [intersect(kernel, lay) for lay in layers[:k]] + [zero]
    pieces: list[tuple[IndecLabel, tuple[int, ...]]] = []
    for i, m in enumerate(drops):
        for u in fixed[i + 1].add(meet(0, i)).extension(fixed[i]):
            pieces.append((unit_label(m), (u,)))
        found = [(drops[j], y) for j in range(i, k)
                 for y in meet(i + 1, j).add(meet(i, j + 1)).extension(meet(i, j))]
        lift = BitMatrix(len(pushed[i]), a.dim, pushed[i]).transpose()
        spread = layers[i].basis.transpose()
        for (t, _), c in zip(found, lift.solve_many(y for _, y in found)):
            e = apply(spread, c)
            pieces.append((e_label(t - m, m), (e, apply(a.module.sigma, e))))
    pieces.sort(key=lambda piece: piece[0])
    fs = FormalSum(tuple(label for label, _ in pieces))
    model = realize_sum(fs)
    if model.dim != a.dim:
        raise MathEngineError("decomposition dimension mismatch")
    cols = tuple(c for _, piece_cols in pieces for c in piece_cols)
    mat = BitMatrix(len(cols), a.dim, cols).transpose()
    iso = FiltMorphism(model, a, mat)
    inv_mat = mat.inverse()
    if inv_mat is None:
        raise MathEngineError("decomposition certificate is singular")
    inv = FiltMorphism(a, model, inv_mat)
    dec = Decomposition(fs, iso, inv)
    if not dec.validate():
        raise MathEngineError("decomposition certificate failed validation")
    return dec


def gr_complex_by_placement(x: Complex) -> Complex:
    """The total graded complex with each term assembled from its nonzero
    weight pieces and each differential placed block by block at the
    offsets of equal weights."""
    if x.kind != FILT:
        raise ValueError("gr applies to filtered complexes")

    def total(a: FiltModule):
        pieces = []
        for w in range(a.w_min, a.w_max + 1):
            piece, reps = a.graded(w)
            if piece.dim:
                pieces.append((w, piece, reps))
        sigma = BitMatrix.block_diag([p.sigma for _, p, _ in pieces])
        return C2Module(sum(p.dim for _, p, _ in pieces), sigma), pieces

    datas = {n: total(x.term(n)) for n in x.degrees()}
    diffs = {}
    for n in x.degrees():
        if n == x.d_min:
            continue
        src_pieces, tgt_pieces = datas[n][1], datas[n - 1][1]
        cols = sum(p.dim for _, p, _ in src_pieces)
        rows = sum(p.dim for _, p, _ in tgt_pieces)
        data = [0] * rows
        roff = 0
        for w_t, piece_t, reps_t in tgt_pieces:
            coff = 0
            for w_s, piece_s, reps_s in src_pieces:
                if w_s == w_t:
                    block = induced_map(reps_s, reps_t, x.term(n - 1).layer(w_t + 1), x.diff(n))
                    for i, r in enumerate(block.data):
                        data[roff + i] ^= r << coff
                coff += piece_s.dim
            roff += piece_t.dim
        diffs[n] = BitMatrix(rows, cols, tuple(data))
    out = build_complex(C2, {n: t for n, (t, _) in datas.items()}, diffs)
    validate_complex(out)
    return out


def tensor_layout_at(x: Complex, y: Complex, n: int) -> tuple[tuple[int, int, int], ...]:
    """The summands of degree n of x (x) y: (p, q, offset) for each pair of
    nonzero terms x_p, y_q with p + q = n, ordered by p."""
    pairs = []
    off = 0
    for p in range(max(x.d_min, n - y.d_max), min(x.d_max, n - y.d_min) + 1):
        q = n - p
        dx, dy = x.dim(p), y.dim(q)
        if dx and dy:
            pairs.append((p, q, off))
            off += dx * dy
    return tuple(pairs)


def tensor_layout_by_degrees(x: Complex, y: Complex) -> dict:
    """`chains.tensor_layout` assembled degree by degree from `tensor_layout_at`."""
    out = {}
    for n in range(x.d_min + y.d_min, x.d_max + y.d_max + 1):
        if summands := tensor_layout_at(x, y, n):
            p, q, off = summands[-1]
            out[n] = (off + x.dim(p) * y.dim(q), list(summands))
    return out


def tensor_diff_by_placement(x: Complex, y: Complex, n: int) -> BitMatrix:
    """The differential of x (x) y out of degree n, each block placed at the
    offset of its (p, q) pair in the target layout."""
    src = tensor_layout_at(x, y, n)
    tgt = tensor_layout_at(x, y, n - 1)
    tgt_off = {(p, q): off for p, q, off in tgt}
    rows_total = sum(x.dim(p) * y.dim(q) for p, q, _ in tgt)
    cols_total = sum(x.dim(p) * y.dim(q) for p, q, _ in src)
    data = [0] * rows_total
    for p, q, off in src:
        dx, dy = x.dim(p), y.dim(q)
        if (p - 1, q) in tgt_off:
            block = x.diff(p).kron(BitMatrix.identity(dy))
            for i, r in enumerate(block.data):
                data[tgt_off[(p - 1, q)] + i] ^= r << off
        if (p, q - 1) in tgt_off:
            block = BitMatrix.identity(dx).kron(y.diff(q))
            for i, r in enumerate(block.data):
                data[tgt_off[(p, q - 1)] + i] ^= r << off
    return BitMatrix(rows_total, cols_total, tuple(data))


def tensor_map_by_placement(f: ChainMap, g: ChainMap) -> ChainMap:
    """The tensor product of chain maps, each f_p (x) g_q placed at the
    offsets of the pair (p, q) in the source and the target layouts."""
    src = tensor_complex(f.source, g.source)
    tgt = tensor_complex(f.target, g.target)
    comps = {}
    for n in src.degrees():
        t_off = {(p, q): off for p, q, off in tensor_layout_at(f.target, g.target, n)}
        data = [0] * tgt.dim(n)
        for p, q, off in tensor_layout_at(f.source, g.source, n):
            if (p, q) in t_off:
                block = f.comp(p).kron(g.comp(q))
                for i, r in enumerate(block.data):
                    data[t_off[(p, q)] + i] ^= r << off
        comps[n] = BitMatrix(tgt.dim(n), src.dim(n), tuple(data))
    return ChainMap.of(src, tgt, comps)


def _of_layers(module: C2Module, w_min: int, layers: list[Subspace]) -> FiltModule:
    """`FiltModule.of` on one layer per weight from w_min, zero above."""
    return FiltModule.of(module, [*enumerate(layers, w_min), (w_min + len(layers), Subspace.zero(module.dim))])


def direct_sum_by_weights(*mods: FiltModule) -> FiltModule:
    """Direct sum with one spanned layer per weight of the union range."""
    live = [a for a in mods if not a.is_zero()]
    if not live:
        return FiltModule.zero()
    mod = C2Module(sum(a.dim for a in live), BitMatrix.block_diag(a.module.sigma for a in live))
    w_min = min(a.w_min for a in live)
    layers = []
    for w in range(w_min, max(a.w_max for a in live) + 2):
        vecs, offset = [], 0
        for a in live:
            vecs.extend(v << offset for v in a.layer(w).basis.data)
            offset += a.dim
        layers.append(Subspace.span(mod.dim, vecs))
    return _of_layers(mod, w_min, layers)


def dual_by_weights(a: FiltModule) -> FiltModule:
    """Dual with the weight-n layer the annihilator of the weight-(1 - n)
    layer, for every n of the range."""
    if a.is_zero():
        return a
    w_min, w_max = -a.w_max, -a.w_min
    layers = [a.layer(1 - w).perp() for w in range(w_min, w_max + 2)]
    return _of_layers(a.module.dual(), w_min, layers)


def tensor_by_weights(a: FiltModule, b: FiltModule) -> FiltModule:
    """Tensor whose weight-w layer is the sum over every p of a's range of
    a.layer(p) (x) b.layer(w - p), for every w of the range."""
    if a.is_zero() or b.is_zero():
        return FiltModule.zero()
    mod = a.module.tensor(b.module)
    w_min = a.w_min + b.w_min
    layers = []
    for w in range(w_min, a.w_max + b.w_max + 2):
        vecs = []
        for p in range(a.w_min, a.w_max + 1):
            lb = b.layer(w - p).basis.data
            for u in a.layer(p).basis.data:
                # u (x) v has entry u_k v_j at position k * b.dim + j
                spread = sum(1 << (k * b.dim) for k in range(a.dim) if (u >> k) & 1)
                vecs.extend(v * spread for v in lb)
        layers.append(Subspace.span(mod.dim, vecs))
    return _of_layers(mod, w_min, layers)


def weight_ge(a: FiltModule, m: int) -> FiltModule:
    """Filtered submodule of weight at least m (weights below m filled up),
    one layer per stored weight above m."""
    mod, reps = quotient_module(a.module, a.layer(m), Subspace.zero(a.dim))
    if mod.dim == 0:
        return FiltModule.zero()
    inject = reps.transpose()
    pairs = []
    for w in [m] + [w for w in a.weights if w > m]:
        cut = a.layer(w).perp().basis.mul(inject)
        pairs.append((w, Subspace.span(mod.dim, cut.kernel().data)))
    return FiltModule.of(mod, pairs)


def weight_ge_by_weights(a: FiltModule, m: int) -> FiltModule:
    """The weight >= m part, its layer cut out at every weight from m to the top."""
    mod, reps = quotient_module(a.module, a.layer(m), Subspace.zero(a.dim))
    if mod.dim == 0:
        return FiltModule.zero()
    inject = reps.transpose()
    layers = [Subspace.span(mod.dim, a.layer(w).perp().basis.mul(inject).kernel().data)
              for w in range(m, max(a.w_max, m) + 2)]
    return _of_layers(mod, m, layers)


def is_valid_by_weights(f: FiltMorphism) -> bool:
    """Equivariance, and each source layer mapped into the same target
    layer, checked at every weight of the source range."""
    m = f.matrix
    if m.mul(f.source.module.sigma) != f.target.module.sigma.mul(m):
        return False
    for w in range(f.source.w_min, f.source.w_max + 1):
        tgt = f.target.layer(w)
        if not all(contains(tgt, apply(m, v)) for v in f.source.layer(w).basis.data):
            return False
    return True


def realize_by_twist(label: IndecLabel) -> FiltModule:
    """The model of one label built from its module: 1(m) and E(0, m) are
    their C2-module in pure weight zero twisted by m, and E(l, m) for l >= 1
    is kC2 with the line e0 + e1 from weight m + 1 up to m + l."""
    if label.kind == UNIT:
        return pwz_module(C2Module.trivial(1)).twist(label.m)
    mod = C2Module.free(1)
    if label.l == 0:
        return pwz_module(mod).twist(label.m)
    return FiltModule.of(mod, [(label.m + 1, Subspace.span(2, (0b11,))),
                               (label.m + label.l + 1, Subspace.zero(2))])


def scrambled_module(rng, fs: FormalSum) -> FiltModule:
    """Realize a formal sum and transport it along a random basis change."""
    a = realize_sum(fs)
    if a.dim == 0:
        return a
    u = random_invertible(rng, a.dim)
    uinv = u.inverse()
    sigma = u.mul(a.module.sigma).mul(uinv)
    layers = [map_through(lay, u) for lay in a.layers]
    return FiltModule(C2Module(a.dim, sigma), a.weights, tuple(layers))


def random_chain_map(rng, x: Complex, y: Complex) -> ChainMap:
    """Random chain map x -> y, sampled uniformly from the hom space."""
    basis = chain_map_basis(x, y)
    f = ChainMap.of(x, y, {})
    for b in basis:
        if rng.getrandbits(1):
            f = f.add(b)
    f.validate()
    return f


# the grammar's atoms without parameters, in the order the seeded draws rely on
CONSTANT_LEAVES = ("0", *GENERATORS, *(a for a in CATALOG_ATOMS if a not in NAMED_PARAM))


def random_expr(rng, depth: int = 3, max_dim: int = 16) -> MotiveExpr:
    """A grammar tree with at most `depth` operator levels over small leaves,
    redrawn until its evaluated complex has total dimension at most max_dim."""
    while True:
        e = _random_tree(rng, depth)
        if to_filtered(e).total_dim() <= max_dim:
            return e


def _random_tree(rng, depth: int) -> MotiveExpr:
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    op = rng.choice(("sum", "tensor", "twist", "shift", "dual"))
    if op in ("sum", "tensor"):
        return MotiveExpr(op, args=(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1)))
    if op == "dual":
        return MotiveExpr(op, args=(_random_tree(rng, depth - 1),))
    return MotiveExpr(op, params=(rng.randint(-3, 3),), args=(_random_tree(rng, depth - 1),))


def _random_leaf(rng) -> MotiveExpr:
    kind = rng.randrange(8)
    if kind == 0:
        return MotiveExpr("atom", "1", (rng.randint(-3, 3),))
    if kind <= 2:
        return MotiveExpr("atom", "E", (rng.randint(0, 3), rng.randint(-3, 3)))
    if kind == 3:
        return MotiveExpr("atom", rng.choice([a for a in CATALOG_ATOMS if a in NAMED_PARAM]), (rng.randint(1, 2),))
    if kind == 4:
        return MotiveExpr("cone", rng.choice(MAPNAMES))
    return MotiveExpr("atom", rng.choice(CONSTANT_LEAVES))


def random_module_tree(rng, depth: int = 3, max_dim: int = 40) -> MotiveExpr:
    """A tree of label atoms (1(n), E(l, m) with l <= 6 and |n|, |m| <= 7,
    M(R), M(C), and 0 one leaf in twenty) under twist by -7..7, shift by
    -1..1, dual, + and *, with at most `depth` operator levels, redrawn until
    its evaluated complex has total dimension at most max_dim.  A shift
    under a sum can leave the sum in two degrees, which does not plan."""
    while True:
        e = _module_tree(rng, depth)
        if to_filtered(e).total_dim() <= max_dim:
            return e


def has_sum_in_two_degrees(e: MotiveExpr) -> bool:
    """True iff some sum in the tree evaluates to a complex in two degrees,
    which is where the label planner gives up on a tree of label atoms."""
    if e.op == "sum" and (x := to_filtered(e)).d_min < x.d_max:
        return True
    return any(map(has_sum_in_two_degrees, e.args))


def _module_tree(rng, depth: int) -> MotiveExpr:
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.05:
            return MotiveExpr("atom", "0")
        if r < 0.1:
            return MotiveExpr("atom", rng.choice(("M(R)", "M(C)")))
        if r < 0.45:
            return MotiveExpr("atom", "1", (rng.randint(-7, 7),))
        return MotiveExpr("atom", "E", (rng.randint(0, 6), rng.randint(-7, 7)))
    op = rng.choice(("twist", "shift", "dual", "sum", "tensor", "tensor"))
    if op in ("sum", "tensor"):
        return MotiveExpr(op, args=(_module_tree(rng, depth - 1), _module_tree(rng, depth - 1)))
    if op == "dual":
        return MotiveExpr(op, args=(_module_tree(rng, depth - 1),))
    bound = 7 if op == "twist" else 1
    return MotiveExpr(op, params=(rng.randint(-bound, bound),), args=(_module_tree(rng, depth - 1),))


def realize_sum_by_direct_sum(fs: FormalSum) -> FiltModule:
    """The standard model as the n-ary direct sum of the labels' models,
    one spanned layer per weight of the summands."""
    return direct_sum(*map(realize_by_twist, fs.labels))


def validate_two_sided(dec: Decomposition) -> bool:
    """Both maps of the certificate filtered and equivariant, and both
    products the identity."""
    if not dec.iso.is_valid() or not dec.inv.is_valid():
        return False
    return (dec.inv.matrix.mul(dec.iso.matrix).is_identity()
            and dec.iso.matrix.mul(dec.inv.matrix).is_identity())


def split_exact_by_solve(amod, bmod, cmod, gf: BitMatrix, gg: BitMatrix) -> bool:
    """Solve jointly for equivariant r: B->A, s: C->B with r.gf = 1,
    gg.s = 1 and gf.r + s.gg = 1."""
    da, db, dc = amod.dim, bmod.dim, cmod.dim
    if db != da + dc:
        return False
    system = LinearSystem()
    r = system.block(da, db)
    s = system.block(db, dc)
    system.constrain(r, equivariance_rows(amod, bmod))
    system.constrain(s, equivariance_rows(bmod, cmod))
    system.equation([(None, r, gf.transpose().data)], BitMatrix.identity(da))
    system.equation([(gg, s, None)], BitMatrix.identity(dc))
    system.equation([(gf, r, None), (None, s, gg.transpose().data)], BitMatrix.identity(db))
    return system.solve() is not None


_ETA = BitMatrix.from_rows([[1], [1]])
_EPS = BitMatrix.from_rows([[1, 1]])


def _random_equivariant(rng, source: C2Module, target: C2Module) -> BitMatrix:
    out = BitMatrix.zero(target.dim, source.dim)
    for m in hom_basis_c2(source, target):
        if rng.random() < 0.5:
            out = out.add(m)
    return out


def _transported(kind, term, u: BitMatrix, uinv: BitMatrix):
    """A term moved along the basis change u, with inverse uinv: sigma is
    conjugated and each layer is mapped through u."""
    if kind == F2:
        return term
    module = term if kind == C2 else term.module
    moved = C2Module(module.dim, u.mul(module.sigma).mul(uinv))
    if kind == C2:
        return moved
    return FiltModule(moved, term.weights, tuple(map_through(lay, u) for lay in term.layers))


def scrambled_complex(rng, x: Complex) -> Complex:
    """x moved along a random basis change u_n of each term: the terms are
    transported along u_n and d_n becomes u_{n-1} . d_n . u_n^-1, so the
    result is isomorphic to x by the u_n."""
    us = {n: random_invertible(rng, x.dim(n)) for n in x.degrees()}
    uinvs = {n: u.inverse() for n, u in us.items()}
    terms = {n: _transported(x.kind, x.term(n), us[n], uinvs[n]) for n in x.degrees()}
    diffs = {n: us[n - 1].mul(x.diff(n)).mul(uinvs[n]) for n in x.degrees()[1:]}
    return build_complex(x.kind, terms, diffs)


def _conjugate(rng, mod: C2Module):
    """mod moved along a random basis change u, with u and its inverse."""
    u = random_invertible(rng, mod.dim) if mod.dim else BitMatrix.identity(0)
    uinv = u.inverse()
    return C2Module(mod.dim, u.mul(mod.sigma).mul(uinv)), u, uinv


def random_graded_sequence(rng):
    """A sequence (A, B, C, gf, gg) of kC2-modules and equivariant maps.

    It starts from A0 + k^j -> A0 + C0 + kC2^j -> C0 + k^j: the identity on
    A0 and C0, and j copies of the nonsplit extension k -eta-> kC2 -eps-> k,
    so it is exact and splits iff j = 0, as half the draws have.  One time
    in three it is then broken: a random equivariant map is added to gf or
    gg, or B gains a trivial summand.  Last, each module moves along a
    random basis change.
    """
    a1, a2, c1, c2 = (rng.randint(0, 2) for _ in range(4))
    j = rng.choice((0, 0, 0, 1, 2, 3))
    a0, c0, reg = C2Module.standard(a1, a2), C2Module.standard(c1, c2), C2Module.free(j)
    amod, cmod = c2_direct_sum(a0, C2Module.trivial(j)), c2_direct_sum(c0, C2Module.trivial(j))
    bmod = c2_direct_sum(a0, c0, reg)
    eta, eps = BitMatrix.block_diag([_ETA] * j), BitMatrix.block_diag([_EPS] * j)
    gf = BitMatrix.from_blocks(bmod.dim, amod.dim,
                               [(0, 0, BitMatrix.identity(a0.dim)), (a0.dim + c0.dim, a0.dim, eta)])
    gg = BitMatrix.from_blocks(cmod.dim, bmod.dim,
                               [(0, a0.dim, BitMatrix.identity(c0.dim)), (c0.dim, a0.dim + c0.dim, eps)])
    broken = rng.randrange(9)
    if broken == 0:
        gf = gf.add(_random_equivariant(rng, amod, bmod))
    elif broken == 1:
        gg = gg.add(_random_equivariant(rng, bmod, cmod))
    elif broken == 2:
        bmod = c2_direct_sum(bmod, C2Module.trivial(1))
        gf = BitMatrix.from_blocks(bmod.dim, amod.dim, [(0, 0, gf)])
        gg = BitMatrix.from_blocks(cmod.dim, bmod.dim, [(0, 0, gg)])
    (amod, _, ua_inv), (bmod, ub, ub_inv), (cmod, uc, _) = (_conjugate(rng, m) for m in (amod, bmod, cmod))
    return amod, bmod, cmod, ub.mul(gf).mul(ua_inv), uc.mul(gg).mul(ub_inv)


def apply(m: BitMatrix, v: int) -> int:
    """Matrix times column vector, as `BitMatrix.apply` was: the sum of the
    columns of m at the set bits of v, so bit i of the result is <row_i, v>."""
    cols = m.transposed.data
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def reduce(space: Subspace, v: int) -> int:
    """The residue of one vector, as `Subspace.reduce` was: only the pivot bits
    that v has are cleared, the row of each read off one int of pivots."""
    pivots = space._pivots
    hit = v & pivots
    rows = space.basis.data
    while hit:
        low = hit & -hit
        v ^= rows[(pivots & (low - 1)).bit_count()]
        hit ^= low
    return v


def contains(space: Subspace, v: int) -> bool:
    """The membership test of one vector, as `Subspace.contains` was."""
    return reduce(space, v) == 0


def post_init_by_vectors(module: C2Module, weights: tuple[int, ...], layers: tuple[Subspace, ...]) -> None:
    """The checks of `FiltModule.__post_init__`, in its order and with its
    messages, with sigma applied to one basis vector at a time."""
    n, sigma = module.dim, module.sigma
    if not (sigma.rows == sigma.cols == n and sigma.mul(sigma).is_identity()):
        raise ValueError("sigma is not an involution")
    if not layers or len(layers) != len(weights):
        raise ValueError("layer count mismatch")
    if not layers[0].is_full():
        raise ValueError("bottom layer must be the whole space")
    if not layers[-1].is_zero():
        raise ValueError("top layer must vanish")
    prev = None
    for lay in layers:
        if lay.ambient != n:
            raise ValueError("layer ambient mismatch")
        if prev is not None and (prev.dim == lay.dim or not all(contains(prev, v) for v in lay.basis.data)):
            raise ValueError("layers must decrease")
        for v in lay.basis.data:
            if not contains(lay, apply(sigma, v)):
                raise ValueError("layer is not sigma-stable")
        prev = lay
    if any(v >= w for v, w in zip(weights, weights[1:])):
        raise ValueError("weights must increase")
    if len(weights) > 1 and weights[1] != weights[0] + 1:
        raise ValueError("weight range not tight at bottom")


def is_valid_by_vectors(f: FiltMorphism) -> bool:
    """`FiltMorphism.is_valid` with one image and one membership test per
    basis vector of each source layer."""
    m = f.matrix
    if m.mul(f.source.module.sigma) != f.target.module.sigma.mul(m):
        return False
    for top, lay in f.source.drops():
        tgt = f.target.layer(top)
        if tgt.is_full():
            continue
        if not all(contains(tgt, apply(m, v)) for v in lay.basis.data):
            return False
    return True


def decompose_by_vectors(a: FiltModule) -> Decomposition:
    """`filtmod.decompose` with every map applied one vector at a time: the
    greedy selection reduces each candidate by all the vectors kept before,
    and the columns of N in the adapted basis are coords . N . v_j."""
    norm = a.module.norm()
    vecs, weights, tops = [], [], {}
    for w, lay in reversed(a.drops()):
        for v in [apply(norm, u) for u in lay.basis.data] + list(lay.basis.data):
            if insert_independent(tops, v):
                vecs.append(v)
                weights.append(w)
    coords = BitMatrix(len(vecs), a.dim, tuple(vecs)).transpose().inverse()
    reduced = [apply(coords, apply(norm, v)) for v in vecs]
    owner: dict[int, int] = {}
    pieces: list[tuple[IndecLabel, tuple[int, ...]]] = []
    for j, c in enumerate(reduced):
        if c >> j:
            raise MathEngineError("norm is not strictly triangular in the adapted basis")
        while c and (k := owner.get(c.bit_length() - 1)) is not None:
            c, vecs[j] = c ^ reduced[k], vecs[j] ^ vecs[k]
        reduced[j] = c
        if c:
            owner[c.bit_length() - 1] = j
            pieces.append((e_label(weights[c.bit_length() - 1] - weights[j], weights[j]),
                           (vecs[j], apply(a.module.sigma, vecs[j]))))
    pieces += [(unit_label(weights[j]), (vecs[j],))
               for j, c in enumerate(reduced) if not c and j not in owner]
    pieces.sort(key=lambda piece: piece[0])
    fs = FormalSum(tuple(label for label, _ in pieces))
    model = realize_sum(fs)
    if model.dim != a.dim:
        raise MathEngineError("decomposition dimension mismatch")
    cols = tuple(c for _, piece_cols in pieces for c in piece_cols)
    mat = BitMatrix(len(cols), a.dim, cols).transpose()
    inv_mat = mat.inverse()
    if inv_mat is None:
        raise MathEngineError("decomposition certificate is singular")
    dec = Decomposition(fs, FiltMorphism(model, a, mat), FiltMorphism(a, model, inv_mat))
    # mat.inverse() is a two-sided inverse: both maps filtered and equivariant is the two-sided check
    if not (is_valid_by_vectors(dec.iso) and is_valid_by_vectors(dec.inv)):
        raise MathEngineError("decomposition certificate failed validation")
    return dec


def map_through(space: Subspace, m: BitMatrix) -> Subspace:
    """Image of a subspace under the matrix m (acting on columns)."""
    if m.cols != space.ambient:
        raise ValueError("shape mismatch")
    return Subspace.span(m.rows, tuple(apply(m, v) for v in space.basis.data))


def reduce_by_rows(space: Subspace, v: int) -> int:
    """`Subspace.reduce` as it was before it read the pivots off one mask: every
    basis row is visited, and v is cleared at the row's pivot if it has it."""
    for b in space.basis.data:
        pivot = b & -b
        if v & pivot:
            v ^= b
    return v


def chain_map_basis(x: Complex, y: Complex) -> list[ChainMap]:
    """Basis of the space of chain maps x -> y, by one global kernel solve:
    unknown cell morphisms g_n: x_n -> y_n subject to d_y g_n + g_{n-1} d_x = 0
    in every degree."""
    if x.kind != y.kind:
        raise ValueError("cell-kind mismatch")
    degs = range(min(x.d_min, y.d_min), max(x.d_max, y.d_max) + 1)
    system = LinearSystem()
    blocks = {n: _hom_block(system, x.kind, x.term(n), y.term(n)) for n in degs}
    for n in range(degs.start, degs.stop + 1):
        terms = [(y.diff(n), blocks[n], None)] if n in blocks else []
        if n - 1 in blocks:
            terms.append((None, blocks[n - 1], x.diff(n).transpose().data))
        system.equation(terms)
    return [ChainMap.of(x, y, {n: system.matrix(b, v) for n, b in blocks.items()})
            for v in system.kernel()]


def hom_DE_unminimized(x: Complex, y: Complex) -> dict[int, int]:
    """`functors.hom_DE` as it was before it minimized its arguments: the
    sigma-fixed part of rwz's weight-zero blocks on w = dual(x) (x) y itself."""
    if x.kind != FILT or y.kind != FILT:
        raise ValueError("hom_DE applies to filtered complexes")
    w = tensor_complex(dual_complex(x), y)
    blocks, diff = _weight_zero_blocks(w)
    fixed = {n: [] for n in sorted(blocks)}
    for n, parts in blocks.items():
        for off, sigma, layer in parts:
            span = Subspace.span(sigma.rows, layer).basis
            cols = span.transpose()
            fixed[n].extend(v << off for v in sigma.mul(cols).add(cols).kernel().mul(span).data)
    ranks = {}
    for n in list(fixed)[1:]:
        if fixed[n]:
            d = diff(n)
            f = BitMatrix(len(fixed[n]), d.cols, tuple(fixed[n])).transpose()
            images = list(d.mul(f).transpose().data)
            if Subspace.span(d.rows, fixed.get(n - 1, []) + images).dim > len(fixed.get(n - 1, [])):
                raise MathEngineError("hom differential left the hom space")
            ranks[n] = Subspace.span(d.rows, images).dim
    out = {}
    for n, vecs in fixed.items():
        h = len(vecs) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[-n] = h
    return out


def hom_basis(source: FiltModule, target: FiltModule) -> list[FiltMorphism]:
    """Basis of the filtration-preserving equivariant maps source -> target."""
    return [FiltMorphism(source, target, f.comp(0))
            for f in chain_map_basis(single(FILT, source), single(FILT, target))]


def hom_basis_c2(source: C2Module, target: C2Module) -> list[BitMatrix]:
    """Basis of the equivariant matrices source -> target."""
    return [f.comp(0) for f in chain_map_basis(single(C2, source), single(C2, target))]


def chain_iso_inverse(u: ChainMap) -> Optional[ChainMap]:
    """The inverse of u if u is a chain isomorphism, else None: every
    component must be invertible in the cell category, which for filtered
    terms includes the inverse preserving filtrations."""
    x, y = u.source, u.target
    inv_comps = {}
    for n in x.degrees():
        if x.dim(n) == 0:
            continue
        m = u.comp(n).inverse()
        if m is None or not cell_is_morphism(x.kind, y.term(n), x.term(n), m):
            return None
        inv_comps[n] = m
    uinv = ChainMap.of(y, x, inv_comps)
    try:
        u.validate()
        uinv.validate()
    except ValueError:
        return None
    return uinv


class SearchExhausted(Exception):
    """A bounded search gave up without deciding its question."""


def find_chain_iso(x: Complex, y: Complex, tries: int = 64, seed: int = 0):
    """Bounded search for an isomorphism of complexes x -> y.

    Returns a validated pair (u, u_inv) of mutually inverse chain maps, the
    identity pair when x == y, or None when none exists (term signatures
    differ, or no nonzero chain map).
    Raises SearchExhausted when the basis and `tries` random sums of it hold
    no isomorphism.  Components must be invertible in the cell category,
    which for filtered terms includes the inverse preserving filtrations."""
    import random as _random

    if x.is_zero() and y.is_zero():
        return ChainMap.of(x, y, {}), ChainMap.of(y, x, {})
    if x == y:
        return ChainMap.identity(x), ChainMap.identity(x)
    if signature(x) != signature(y):
        # a chain isomorphism is an isomorphism in each degree
        return None
    basis = chain_map_basis(x, y)
    if not basis:
        return None
    rng = _random.Random(seed)

    def try_map(u: ChainMap):
        uinv = chain_iso_inverse(u)
        return None if uinv is None else (u, uinv)

    for u in basis:
        hit = try_map(u)
        if hit:
            return hit
    for _ in range(tries):
        pick = [b for b in basis if rng.getrandbits(1)]
        if not pick:
            continue
        u = pick[0]
        for extra in pick[1:]:
            u = u.add(extra)
        hit = try_map(u)
        if hit:
            return hit
    raise SearchExhausted(f"no chain isomorphism among {len(basis)} basis maps and {tries} random sums")


def truncate_ge(x: Complex, n: int) -> tuple[Complex, ChainMap]:
    """Stupid truncation keeping degrees >= n, with the map x -> x_{>=n}."""
    terms = {m: x.term(m) for m in x.degrees() if m >= n}
    diffs = {m: x.diff(m) for m in x.degrees() if m > n}
    trunc = build_complex(x.kind, terms, diffs)
    proj = ChainMap.of(x, trunc, {m: BitMatrix.identity(x.dim(m)) for m in terms})
    return trunc, proj


def truncate_le(x: Complex, n: int) -> tuple[Complex, ChainMap]:
    """Stupid truncation keeping degrees <= n, with the map x_{<=n} -> x."""
    terms = {m: x.term(m) for m in x.degrees() if m <= n}
    diffs = {m: x.diff(m) for m in x.degrees() if m <= n}
    trunc = build_complex(x.kind, terms, diffs)
    incl = ChainMap.of(trunc, x, {m: BitMatrix.identity(x.dim(m)) for m in terms})
    return trunc, incl


def truncation_delta(x: Complex, n: int) -> ChainMap:
    """The connecting map x_{>=n+1}[-1] -> x_{<=n}; it is d in degree n."""
    upper, _ = truncate_ge(x, n + 1)
    lower, _ = truncate_le(x, n)
    src = shift(upper, -1)
    comps = {}
    if x.d_min <= n < x.d_max:
        comps[n] = x.diff(n + 1)
    return ChainMap.of(src, lower, comps)
