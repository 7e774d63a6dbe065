import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfilt import gf2
from ttfilt.gf2 import BitMatrix, C2Module, LinearSystem, Subspace, image, kernel_space
from ttfilt.chains import C2, single
from ttfilt.filtmod import FiltModule
from ttfilt.shell import SchemaError, deserialize, serialize

from helpers import (apply, brute_rank, c2_direct_sum, complement, contains, entry, gather, hom_basis_c2, intersect,
                     reduce, reduce_by_rows, rref_by_column_scan, split_by_gather, to_lists)


def rand_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def test_rank_examples():
    assert BitMatrix.identity(3).rank() == 3
    assert BitMatrix.from_rows([[1, 1], [1, 1]]).rank() == 1
    assert BitMatrix.zero(4, 2).rank() == 0


def test_solve_regular_representation():
    a = BitMatrix.from_rows([[1, 1], [1, 1]])
    x = a.solve(0b11)
    assert x is not None and apply(a, x) == 0b11
    assert a.solve(0b01) is None


def test_solve_identity():
    a = BitMatrix.identity(3)
    assert a.solve(0b101) == 0b101


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**36 - 1))
@settings(max_examples=80)
def test_rank_transpose(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols)
    assert m.rank() == m.transpose().rank()


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**36 - 1))
@settings(max_examples=80)
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols)
    assert m.kernel().rows + m.rank() == m.cols


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**36 - 1))
@settings(max_examples=40)
def test_rank_against_brute_force(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols)
    assert m.rank() == brute_rank(to_lists(m))


def sparse_matrix(rng, rows, cols, density):
    return BitMatrix(rows, cols, tuple(sum((rng.random() < density) << j for j in range(cols))
                                       for _ in range(rows)))


def invertible_matrix(rng, n):
    """The identity after random row additions, rows shuffled."""
    data = [1 << i for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            data[i] ^= data[j]
    rng.shuffle(data)
    return BitMatrix(n, n, tuple(data))


def assert_rref_matches_column_scan(m):
    assert m.rref() == rref_by_column_scan(m)


def test_rref_matches_the_column_scan_on_seeded_matrices():
    rng = random.Random(20260)
    for density in (0.0, 0.02, 0.1, 0.3, 0.5, 0.8, 1.0):
        for _ in range(30):
            m = sparse_matrix(rng, rng.randint(0, 40), rng.randint(0, 90), density)
            assert_rref_matches_column_scan(m)
            if m.rows:  # repeated and zero rows
                data = tuple(rng.choice(m.data + (0,)) for _ in range(rng.randint(1, 40)))
                assert_rref_matches_column_scan(BitMatrix(len(data), m.cols, data))
    for n in range(0, 25):
        inv = invertible_matrix(rng, n)
        assert_rref_matches_column_scan(inv)
        assert inv.rref() == (BitMatrix.identity(n), tuple(range(n)))
    for _ in range(60):  # Zassenhaus rows: [u|u] over [v|0]
        n = rng.randint(0, 30)
        us = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))] if n else []
        vs = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))] if n else []
        rows = tuple(u | (u << n) for u in us) + tuple(vs)
        assert_rref_matches_column_scan(BitMatrix(len(rows), 2 * n, rows))


@given(st.integers(0, 40), st.integers(0, 90), st.floats(0, 1), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_rref_matches_the_column_scan(rows, cols, density, repeat, seed):
    rng = random.Random(seed)
    m = sparse_matrix(rng, rows, cols, density)
    if repeat and rows:
        m = BitMatrix(rows, cols, tuple(rng.choice(m.data + (0,)) for _ in range(rows)))
    assert_rref_matches_column_scan(m)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_apply_mul_transpose_against_entries(rows, cols, k, seed):
    rng = random.Random(seed)
    a, b = rand_matrix(rng, rows, cols), rand_matrix(rng, cols, k)
    v = rng.getrandbits(cols) if cols else 0
    parity = sum(((a.data[i] & v).bit_count() & 1) << i for i in range(rows))
    assert apply(a, v) == parity
    prod = a.mul(b)
    assert (prod.rows, prod.cols) == (rows, k)
    for i in range(rows):
        for j in range(k):
            assert entry(prod, i, j) == sum(entry(a, i, t) & entry(b, t, j) for t in range(cols)) % 2
    t = a.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert all(entry(t, j, i) == entry(a, i, j) for i in range(rows) for j in range(cols))


SIDES = (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129)


def sparse_or_half(rng, rows, cols, sparse):
    """Two random bits per row (they may coincide), or each bit with probability 1/2."""
    if not sparse or not cols:
        return rand_matrix(rng, rows, cols)
    return BitMatrix(rows, cols, tuple((1 << rng.randrange(cols)) | (1 << rng.randrange(cols)) for _ in range(rows)))


@pytest.mark.parametrize("sparse", [True, False], ids=["2-bits-per-row", "half"])
def test_packed_kernels_match_the_bit_loops(sparse):
    # both kernels called directly, whatever the rule would pick
    rng = random.Random(f"kernels/{sparse}")
    for rows in SIDES:
        for cols in SIDES:
            m = sparse_or_half(rng, rows, cols, sparse)
            assert m._transpose_packed() == m._transpose_rows(), (rows, cols)
            other = sparse_or_half(rng, cols, rng.choice(SIDES), sparse)
            assert m._mul_packed(other) == m._mul_rows(other), (rows, cols, other.cols)
    # every slot width and side the sizes reach, and square products on both kernels
    for n in SIDES:
        m = rand_matrix(rng, n, n)
        assert m._mul_packed(m) == m._mul_rows(m)
        assert m._transpose_packed()._transpose_packed() == m


def test_the_rule_packs_dense_matrices_and_takes_the_wide_loop_on_long_dense_lines():
    rng = random.Random(5)
    dense, sparse = rand_matrix(rng, 64, 64), sparse_or_half(rng, 64, 64, True)
    assert gf2._kernel(dense) == gf2._kernel(dense, 64) == gf2.PACKED
    assert gf2._kernel(sparse) == gf2._kernel(sparse, 64) == gf2.ROWS
    for small in (rand_matrix(rng, 4, 4), sparse_or_half(rng, 8, 8, True)):
        assert gf2._kernel(small) == gf2._kernel(small, small.cols) == gf2.ROWS
    long_dense, long_sparse = rand_matrix(rng, 2, 20_000), sparse_or_half(rng, 2, 20_000, True)
    assert gf2._kernel(long_dense) == gf2._kernel(long_dense, 2) == gf2.WIDE
    assert gf2._kernel(long_sparse) == gf2._kernel(long_sparse, 2) == gf2.ROWS
    for m in (long_dense, long_sparse):
        assert m._transpose_wide() == m._transpose_rows()
        other = rand_matrix(rng, m.cols, 3)
        assert m._mul_wide(other) == m._mul_rows(other)


@pytest.mark.parametrize("rows,cols", [(2, 100_000), (100_000, 2), (1, 1_000_000)])
def test_lopsided_matrices_cost_their_entries(rows, cols):
    # the packed square of a 1 x 10^6 matrix would have 2^40 bits, and the bit
    # loop is quadratic in a long dense line: the cost follows the entries
    rng = random.Random(rows)
    m = rand_matrix(rng, rows, cols)
    t0 = time.perf_counter()
    t = m.transpose()
    short = m.mul(t) if rows < cols else t.mul(m)
    assert time.perf_counter() - t0 < 1.0
    assert gf2.PACKED not in (gf2._kernel(m), gf2._kernel(t), gf2._kernel(m, rows), gf2._kernel(t, cols))
    # the short product is the Gram matrix of the long lines: entry (i, j) is the parity of line i & line j
    lines = m.data if rows < cols else t.data
    assert short.data == tuple(sum(((a & b).bit_count() & 1) << j for j, b in enumerate(lines)) for a in lines)
    one = BitMatrix.identity(min(rows, cols))
    assert m == (one.mul(m) if rows < cols else m.mul(one))
    for i, j in ((rng.randrange(rows), rng.randrange(cols)) for _ in range(200)):
        assert (t.data[j] >> i) & 1 == (m.data[i] >> j) & 1


def test_reduce_matches_the_row_loop():
    # both residue kernels, whatever the rule picks, and the per-vector residue
    rng = random.Random(11)
    for n in (0, 1, 7, 8, 9, 63, 64, 65, 129):
        spaces = [Subspace.zero(n), Subspace.full(n)]
        spaces += [Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randint(1, n + 2))]) for _ in range(6)]
        for space in spaces:
            vecs = tuple(rng.getrandbits(n) for _ in range(20))
            want = tuple(reduce_by_rows(space, v) for v in vecs)
            assert space._reduce_rows(vecs) == space._reduce_packed(vecs) == want, (n, space.dim)
            assert tuple(reduce(space, v) for v in vecs) == want
            assert not any(space._reduce_rows(space.basis.data) + space._reduce_packed(space.basis.data))
        assert Subspace.full(n).reduce_all((rng.getrandbits(n),)) == (0,)


def _combination(rng, rows, at_most=None) -> int:
    """The sum of a random subset of rows, of at most at_most of them when given."""
    picked = [r for r in rows if rng.random() < 0.5]
    return _sum_rows(rng.sample(picked, min(at_most, len(picked))) if at_most is not None else picked)


def _sum_rows(rows) -> int:
    out = 0
    for r in rows:
        out ^= r
    return out


def _sparse_or_dense_space(rng, n: int, dim: int, sparse: bool) -> Subspace:
    """The span of dim random vectors of GF(2)^n: 2 bits each, or density 1/2."""
    if sparse:
        return Subspace.span(n, [(1 << rng.randrange(n)) | (1 << rng.randrange(n)) for _ in range(dim)])
    return Subspace.span(n, [rng.getrandbits(n) for _ in range(dim)])


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_reduce_all_and_contains_all_match_the_per_vector_reduce(n):
    rng = random.Random(f"residues/{n}")
    spaces = [Subspace.zero(n), Subspace.full(n)]
    if n:
        spaces += [_sparse_or_dense_space(rng, n, rng.randint(1, n), sparse) for sparse in (True, False) for _ in range(2)]
    for space in spaces:
        members = [_combination(rng, space.basis.data) for _ in range(2 * n + 3)]
        cases = [(), (0,), (0,) * 5, tuple(members), tuple(members[:1])]
        cases.append(tuple(rng.getrandbits(n) for _ in range(2 * n + 3)))               # mostly non-members
        cases.append(tuple(members[:-1]) + (rng.getrandbits(n),))                      # at most one non-member
        cases.append(tuple(_combination(rng, space.basis.data, 2) for _ in range(n + 3)))  # 2 pivot hits or fewer
        for vecs in cases:
            want = tuple(reduce(space, v) for v in vecs)
            assert space.reduce_all(vecs) == space._reduce_rows(vecs) == space._reduce_packed(vecs) == want
            assert space.contains_all(vecs) == all(contains(space, v) for v in vecs)
        assert space.contains_all(tuple(members)) and space.contains_space(Subspace.span(n, members))


def test_the_residue_rule_keeps_tiny_and_two_hit_cases_on_the_loop():
    rng = random.Random(6)
    for n, dim, hits, pick in ((4, 4, None, gf2.ROWS), (1, 1, None, gf2.ROWS), (16, 16, None, gf2.PACKED),
                               (45, 45, None, gf2.PACKED), (128, 120, None, gf2.PACKED),
                               (45, 45, 2, gf2.ROWS), (128, 120, 2, gf2.ROWS)):
        space = _sparse_or_dense_space(rng, n, dim, False)
        while space.dim < dim:
            space = space.add(Subspace.span(n, (rng.getrandbits(n),)))
        pivots = [b & -b for b in space.basis.data]
        if hits is None:  # dense members: half the pivots hit
            vecs = tuple(_combination(rng, space.basis.data) for _ in range(dim))
        else:
            vecs = tuple(sum(rng.sample(pivots, hits)) for _ in range(dim))
        assert gf2._residue_kernel(space, vecs) == pick, (n, dim, hits)
    # one vector is never packed, whatever its hits
    full = Subspace.full(128)
    assert gf2._residue_kernel(full, ((1 << 128) - 1,)) == gf2.ROWS


def test_span_keeps_a_reduced_basis_and_reduces_anything_else(monkeypatch):
    def by_rref(n, vecs):
        red, pivots = BitMatrix(len(vecs), n, tuple(vecs)).rref()
        return Subspace(n, BitMatrix(len(pivots), n, red.data[:len(pivots)]))

    canonical = (0b0000011, 0b0101100, 0b1010000)       # pivots 0, 2, 4
    inputs = {
        "canonical": canonical,
        "unsorted": (canonical[1], canonical[0], canonical[2]),
        "duplicate": canonical + (canonical[2],),
        "zero row": (canonical[0], 0, *canonical[1:]),
        "pivot in another row": (canonical[0] | 0b100, *canonical[1:]),
        "pivot in a later row": (canonical[0], canonical[1] | 0b1, canonical[2]),
        "empty": (),
    }
    for name, vecs in inputs.items():
        assert Subspace.span(7, vecs) == by_rref(7, vecs), name
        assert gf2._is_reduced(vecs) == (name in ("canonical", "empty")), name
    rng = random.Random(8)
    for n in (1, 8, 9, 65):
        for _ in range(30):
            vecs = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
            space = Subspace.span(n, vecs)
            assert space == by_rref(n, vecs)
            # reduced rows are the canonical basis only in rref's order
            assert gf2._is_reduced(space.basis.data)
            shuffled = list(space.basis.data)
            rng.shuffle(shuffled)
            assert gf2._is_reduced(tuple(shuffled)) == (tuple(shuffled) == space.basis.data)
    # a canonical basis is kept as given, with no elimination
    monkeypatch.setattr(BitMatrix, "rref", lambda self: pytest.fail("rref on a canonical basis"))
    assert Subspace.span(7, canonical).basis.data == canonical


def test_subspace_canonical_equality():
    s1 = Subspace.span(3, (0b011, 0b110))
    s2 = Subspace.span(3, (0b101, 0b011))
    assert s1 == s2
    assert s1.basis == s2.basis


def test_subspace_ops():
    amb = Subspace.full(3)
    s = Subspace.span(3, (0b011,))
    assert intersect(s, amb) == s
    assert s.add(complement(s)).is_full()
    assert intersect(complement(s), s).is_zero()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_subspace_intersect_matches_the_perp_formula(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    s = Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randint(0, n + 1))])
    t = Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randint(0, n + 1))])
    got = intersect(s, t)
    assert got == s.perp().add(t.perp()).perp()
    assert got == intersect(t, s)
    assert s.contains_space(got) and t.contains_space(got)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_subspace_extension_is_the_greedy_basis_extension(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    sub = Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randint(0, 3))])
    larger = sub.add(Subspace.span(n, [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]))
    expected, seen = [], sub
    for v in larger.basis.data:
        if not contains(seen, v):
            expected.append(v)
            seen = seen.add(Subspace.span(n, (v,)))
    assert sub.extension(larger) == expected
    assert seen == larger


def test_kernel_of_norm_on_regular_module():
    reg = C2Module.free(1)
    assert kernel_space(reg.norm()) == Subspace.span(2, (0b11,))


def test_module_split_examples():
    assert C2Module.free(1).module_split() == (0, 1)
    assert C2Module.trivial(1).module_split() == (1, 0)
    four = c2_direct_sum(C2Module.trivial(2), C2Module.free(1))
    assert four.module_split() == (2, 1)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40)
def test_module_split_additive(a1, b1, a2, b2):
    m1, m2 = C2Module.standard(a1, b1), C2Module.standard(a2, b2)
    a, b = c2_direct_sum(m1, m2).module_split()
    assert (a, b) == (a1 + a2, b1 + b2)
    assert a + 2 * b == m1.dim + m2.dim


def test_standard_split_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a + b == 0:
            continue
        std = C2Module.standard(a, b)
        u = rand_matrix(rng, std.dim, std.dim)
        while u.inverse() is None:
            u = rand_matrix(rng, std.dim, std.dim)
        scr = C2Module(std.dim, u.mul(std.sigma).mul(u.inverse()))
        a2, b2, v, _ = scr.standard_split()
        assert (a2, b2) == (a, b)
        assert v.mul(C2Module.standard(a2, b2).sigma) == scr.sigma.mul(v)


def test_sigma_involution_enforced():
    """A sigma that is not an involution is rejected where values enter:
    in the text of a C2 term, and by the public FiltModule constructors."""
    text = serialize(single(C2, C2Module.free(1))).replace("sigma 01|10", "sigma 01|01")
    with pytest.raises(SchemaError, match="sigma is not an involution"):
        deserialize(text)
    bad = C2Module(2, BitMatrix.from_rows([[0, 1], [0, 1]]))
    with pytest.raises(ValueError, match="sigma is not an involution"):
        FiltModule.of(bad, [(1, Subspace.zero(2))])


def test_hom_basis_c2_dims():
    k, reg = C2Module.trivial(1), C2Module.free(1)
    assert len(hom_basis_c2(k, k)) == 1
    assert len(hom_basis_c2(k, reg)) == 1
    assert len(hom_basis_c2(reg, k)) == 1
    assert len(hom_basis_c2(reg, reg)) == 2


def test_image_and_kron():
    reg = C2Module.free(1)
    assert image(reg.norm()) == Subspace.span(2, (0b11,))
    a = BitMatrix.from_rows([[1, 0], [1, 1]])
    b = BitMatrix.from_rows([[0, 1], [1, 0]])
    k = a.kron(b)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert entry(k, i1 * 2 + i2, j1 * 2 + j2) == entry(a, i1, j1) * entry(b, i2, j2)


def test_from_blocks_sums_the_placed_entries():
    rng = random.Random(37)
    for _ in range(50):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        blocks = []
        for _ in range(rng.randint(0, 4)):
            r0, c0 = rng.randint(0, rows), rng.randint(0, cols)
            h, w = rng.randint(0, rows - r0), rng.randint(0, cols - c0)
            blocks.append((r0, c0, BitMatrix(h, w, tuple(rng.getrandbits(w) for _ in range(h)))))
        m = BitMatrix.from_blocks(rows, cols, blocks)
        for i in range(rows):
            for j in range(cols):
                want = sum(entry(b, i - r0, j - c0) for r0, c0, b in blocks
                           if r0 <= i < r0 + b.rows and c0 <= j < c0 + b.cols) % 2
                assert entry(m, i, j) == want
    # a block past the last row or column is an error, not a silent crop
    for r0, c0 in ((1, 0), (0, 1)):
        with pytest.raises((IndexError, ValueError)):
            BitMatrix.from_blocks(2, 2, [(r0, c0, BitMatrix.identity(2))])


def test_submatrix_needs_increasing_columns():
    m = BitMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    assert to_lists(gather(m, [2, 0], [0, 2, 3])) == [[1, 0, 1], [1, 1, 1]]


def test_split_matches_the_entrywise_gather():
    # every pair of contiguous ranges, empty ones at both ends and inside included
    rng = random.Random(22)
    shapes = [(0, 0), (1, 0), (0, 3), (1, 1), (12, 12)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(8)]
    for rows, cols in shapes:
        m = rand_matrix(rng, rows, cols)
        for r in (range(i, k) for i in range(rows + 1) for k in range(i, rows + 1)):
            for c in (range(j, l) for j in range(cols + 1) for l in range(j, cols + 1)):
                assert m.split(r, c) == split_by_gather(m, r, c), (m, r, c)


def _random_linear_system(rng):
    """A random system on one or two unknown blocks of shape up to 3 x 3,
    plus the data to evaluate it by hand.  Returns (system, block ids,
    shapes, equations, packed) where equations are (terms, rhs) with R as
    a matrix and packed holds (block, row) constraints given as packed rows."""
    while True:
        shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
        if sum(r * c for r, c in shapes) <= 12:
            break
    system = LinearSystem()
    ids = [system.block(r, c) for r, c in shapes]
    equations = []
    for _ in range(rng.randint(1, 2)):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        terms = []
        for b in (rng.randrange(len(shapes)) for _ in range(rng.randint(1, 2))):
            nr, nc = shapes[b]
            left = None if p == nr and rng.random() < 0.5 else rand_matrix(rng, p, nr)
            right = None if q == nc and rng.random() < 0.5 else rand_matrix(rng, nc, q)
            terms.append((left, b, right))
        rhs = rand_matrix(rng, p, q) if rng.random() < 0.7 else None
        system.equation([(left, ids[b], None if right is None else right.transpose().data)
                         for left, b, right in terms], rhs)
        equations.append((terms, rhs))
    packed = []
    if rng.random() < 0.5:
        b = rng.randrange(len(shapes))
        packed = [(b, rng.getrandbits(shapes[b][0] * shapes[b][1])) for _ in range(rng.randint(1, 2))]
        for b, row in packed:
            system.constrain(ids[b], (row,))
    return system, ids, shapes, equations, packed


def _satisfies(xs, equations, packed, homogeneous):
    for terms, rhs in equations:
        total = None
        for left, b, right in terms:
            m = xs[b]
            if left is not None:
                m = left.mul(m)
            if right is not None:
                m = m.mul(right)
            total = m if total is None else total.add(m)
        want = BitMatrix.zero(total.rows, total.cols) if rhs is None or homogeneous else rhs
        if total != want:
            return False
    # a packed row over a block's row-major entries is an even-parity condition
    return all(sum(entry(xs[b], i, j) & (row >> (i * xs[b].cols + j)) & 1
                   for i in range(xs[b].rows) for j in range(xs[b].cols)) % 2 == 0
               for b, row in packed)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_system_against_brute_force(seed):
    rng = random.Random(seed)
    system, ids, shapes, equations, packed = _random_linear_system(rng)
    n = sum(r * c for r, c in shapes)
    assert system.n == n
    homogeneous, solutions = set(), set()
    for flat in range(1 << n):
        xs = [system.matrix(b, flat) for b in ids]
        assert [(x.rows, x.cols) for x in xs] == shapes
        if _satisfies(xs, equations, packed, True):
            homogeneous.add(flat)
        if _satisfies(xs, equations, packed, False):
            solutions.add(flat)
    kernel = system.kernel()
    span = {0}
    for v in kernel:
        span |= {w ^ v for w in span}
    assert len(span) == 1 << len(kernel)
    assert span == homogeneous
    sol = system.solve()
    assert (sol is not None) == bool(solutions)
    assert sol is None or sol in solutions


def test_linear_system_unpacks_row_major():
    system = LinearSystem()
    a = system.block(2, 3)
    b = system.block(1, 2)
    flat = 0b10_101_011
    assert system.matrix(a, flat) == BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
    assert system.matrix(b, flat) == BitMatrix.from_rows([[0, 1]])
    assert BitMatrix.from_rows([[1, 1, 0], [1, 0, 1]]).flat() == 0b101_011


def test_linear_system_without_unknowns():
    system = LinearSystem()
    system.block(0, 3)
    assert system.kernel() == ()
    assert system.solve() == 0
    system.equation([], BitMatrix.identity(1))
    assert system.solve() is None
