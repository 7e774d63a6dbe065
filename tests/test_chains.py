import random

import pytest

from ttfilt.gf2 import BitMatrix, C2Module
from ttfilt.filtmod import FormalSum, e_label, realize, realize_sum, unit_label
from ttfilt.chains import (
    C2,
    F2,
    FILT,
    NAMED,
    NAMED_PARAM,
    ChainMap,
    Complex,
    _label_dim,
    _offsets,
    _tensor_diff,
    build_complex,
    cell_zero,
    cone,
    cone_beta,
    cone_omega,
    cone_rho,
    direct_sum_complex,
    dual_complex,
    eps_tilde,
    eta_upsilon,
    fund0,
    fund_seq,
    fundpur,
    fundpur_splice,
    injres_trunc,
    invertpur_pow,
    is_nullhomotopic,
    koszul_T,
    minimize,
    named,
    shift,
    signature,
    single,
    tensor_complex,
    tensor_layout,
    tensor_map,
    twist_complex,
    upsilon,
    validate_complex,
)
from ttfilt.functors import fgt_complex, gr_complex, min_weight, res_complex, rwz, sta_complex
from ttfilt.samples import random_c2_module, random_complex, random_formal_sum
from ttfilt.spectrum import supp

from helpers import (SearchExhausted, chain_iso_inverse, check_values, find_chain_iso, gather, labels_at,
                     random_chain_map, tensor_diff_by_placement, tensor_layout_by_degrees, tensor_map_by_placement, truncate_ge, truncate_le, truncation_delta,
                     unit_complex, width)


def unit_c2():
    return single(C2, C2Module.trivial(1))


# -- constructions -------------------------------------------------------------

def test_shift_roundtrip():
    x = fundpur()
    assert shift(shift(x, 3), -3) == x


def test_cone_of_identity_contracts():
    assert minimize(cone(ChainMap.identity(unit_complex()))).complex.is_zero()
    assert minimize(cone(ChainMap.identity(fund0()))).complex.is_zero()


def test_direct_sum_is_n_ary_and_returns_a_lone_summand():
    rng = random.Random(23)
    x, y, w = (random_complex(rng, C2, 2, d_min=k) for k in (0, 1, -1))
    zero, other_zero = Complex(C2, 0, (), ()), Complex(C2, 0, (), ())
    assert direct_sum_complex(x, y, w) == direct_sum_complex(direct_sum_complex(x, y), w)
    assert direct_sum_complex(zero, y) is y
    assert direct_sum_complex(x, zero) is x
    assert direct_sum_complex(zero, x, other_zero) is x
    assert direct_sum_complex(zero, other_zero) is other_zero
    assert direct_sum_complex(x) is x
    with pytest.raises(ValueError):
        direct_sum_complex(x, unit_complex())


def _sparse_terms(rng, kind):
    """Small terms of the given kind, zero one time in three."""
    def gen():
        if rng.random() < 1 / 3:
            return cell_zero(kind)
        if kind == FILT:
            return realize_sum(random_formal_sum(rng, max_summands=2, max_l=3))
        return random_c2_module(rng, 3) if kind == C2 else rng.randint(1, 3)
    return gen


def _common_range(rng, kind):
    """The source and the target of a chain map, on one degree range and
    with no zero term: otherwise most chain maps between them are zero."""
    d_min, size = rng.randint(-2, 1), rng.randint(2, 4)
    term_gen = (lambda: rng.randint(1, 3)) if kind == F2 else None
    return [random_complex(rng, kind, size, term_gen, d_min=d_min) for _ in range(2)]


@pytest.mark.parametrize("kind", [FILT, C2, F2])
def test_tensor_blocks_match_the_placement_oracles(kind):
    """Zero terms inside and at the ends of the degree ranges, factors on
    different ranges, zero factors, and twisted and dual factors.  Chain
    maps between complexes on ranges apart are mostly zero, so each round
    also draws f2 and g2 between complexes on a common range, and most of
    those are nonzero."""
    rng = random.Random(29)
    zero = Complex(kind, 0, (), ())
    nonzero_f = nonzero_g = 0
    for _ in range(10):
        xs = [random_complex(rng, kind, rng.randint(1, 4), _sparse_terms(rng, kind), d_min=rng.randint(-2, 1))
              for _ in range(4)]
        xs[2] = dual_complex(xs[2])
        if kind == FILT:
            xs[1] = twist_complex(xs[1], rng.randint(-2, 2))
        for x, y in ((xs[0], xs[2]), (xs[1], xs[3]), (xs[0], zero)):
            layout = tensor_layout(x, y)
            # every degree of the product laid out as by the per-degree oracle, and no other degree
            assert layout == tensor_layout_by_degrees(x, y)
            for n in range(x.d_min + y.d_min - 1, x.d_max + y.d_max + 2):
                assert _tensor_diff(x, y, layout, n) == tensor_diff_by_placement(x, y, n)
        f, g = random_chain_map(rng, xs[0], xs[1]), random_chain_map(rng, xs[2], xs[3])
        f_ends, g_ends = _common_range(rng, kind), [dual_complex(x) for x in _common_range(rng, kind)]
        if kind == FILT:
            r = rng.randint(-2, 2)
            f_ends = [twist_complex(x, r) for x in f_ends]
        f2, g2 = random_chain_map(rng, *f_ends), random_chain_map(rng, *g_ends)
        nonzero_f += not f2.is_zero()
        nonzero_g += not g2.is_zero()
        for a, b in ((f, g), (g, f), (ChainMap.identity(xs[0]), g), (f, ChainMap.identity(zero)),
                     (f2, g2), (g2, f2), (f, g2)):
            assert tensor_map(a, b) == tensor_map_by_placement(a, b)
    assert nonzero_f >= 7 and nonzero_g >= 7, (nonzero_f, nonzero_g)


@pytest.mark.parametrize("kind", [FILT, C2, F2])
def test_tensor_complex_passes_the_full_validation(kind):
    """tensor_complex assembles without checks; its outputs, of twisted,
    dual and sparse factors, pass validate_complex."""
    rng = random.Random(31)
    for _ in range(12):
        x, y = (random_complex(rng, kind, rng.randint(1, 3), _sparse_terms(rng, kind), d_min=rng.randint(-2, 1))
                for _ in range(2))
        if kind == FILT:
            x = twist_complex(x, rng.randint(-2, 2))
        for a, b in ((x, y), (dual_complex(x), y), (x, x)):
            validate_complex(tensor_complex(a, b))


# the parameters at which each catalog family is validated
_SMALL_PARAMS = {"fundl": range(1, 5), "invertpur": range(-4, 5), "injres": range(9),
                 "Lpure": range(-3, 4), "fundpursplice": range(-1, 6)}


def test_engine_complexes_and_maps_pass_the_full_validation():
    """build_complex and ChainMap.of check nothing; the catalog (whose cones
    hold its maps), single, dual_complex of random complexes with zero
    terms, and cones of random chain maps pass validate_complex, and the
    catalog maps validate.  Nor do the gf2 values check themselves: every
    matrix, subspace and module in these, and in tensor products, minimal
    forms with incl and proj, rwz, gr, fgt, sta and res, passes
    check_values."""
    assert set(_SMALL_PARAMS) == set(NAMED_PARAM)
    values = [build() for build in NAMED.values()]
    values += [NAMED_PARAM[name](n) for name, ns in _SMALL_PARAMS.items() for n in ns]
    rng = random.Random(37)
    derived = []
    for kind in (FILT, C2, F2):
        for _ in range(8):
            x = random_complex(rng, kind, rng.randint(1, 3), _sparse_terms(rng, kind), d_min=rng.randint(-2, 1))
            # on a common degree range, f.d is often nonzero: the cone's d.d = 0 rests on it
            y, z = (random_complex(rng, kind, rng.randint(2, 4)) for _ in range(2))
            values += [single(kind, _sparse_terms(rng, kind)(), rng.randint(-2, 2)), dual_complex(x),
                       cone(random_chain_map(rng, y, z))]
            derived += [tensor_complex(x, y), tensor_complex(dual_complex(y), z), minimize(tensor_complex(y, z))]
            if kind != F2:
                plain = [x] if kind == C2 else [fgt_complex(x), gr_complex(x), rwz(twist_complex(x, -min_weight(x)))]
                derived += plain + [f(c) for c in plain for f in (sta_complex, res_complex)]
    maps = [v for v in values if isinstance(v, ChainMap)] + [eta_upsilon()]
    assert len(maps) == 4
    check_values(values, derived, maps)
    for f in maps:
        f.validate()
    for x in values:
        if isinstance(x, Complex):
            validate_complex(x)


def test_tensor_unit_law():
    x = fund0()
    t = tensor_complex(x, unit_complex())
    assert signature(t) == signature(x)
    assert t == x  # one-dimensional unit factors collapse to identical terms


def test_tensor_associativity_signature():
    rng = random.Random(2)
    a = random_complex(rng, FILT, 2)
    b = random_complex(rng, FILT, 2)
    c = random_complex(rng, FILT, 2)
    left = tensor_complex(tensor_complex(a, b), c)
    right = tensor_complex(a, tensor_complex(b, c))
    assert {n: left.dim(n) for n in left.degrees()} == {n: right.dim(n) for n in right.degrees()}
    assert signature(minimize(left).complex) == signature(minimize(right).complex)


def test_dual_complex_involution():
    x = fund_seq(2)
    assert signature(dual_complex(dual_complex(x))) == signature(x)


def test_truncation_triangle():
    x = fundpur()
    for n in (0, 1):
        delta = truncation_delta(x, n)
        c = cone(delta)
        # the cone of the connecting map is degreewise identical to x
        assert {m: c.dim(m) for m in c.degrees()} == {m: x.dim(m) for m in x.degrees()}
        iso = ChainMap.of(c, x, {m: BitMatrix.identity(x.dim(m)) for m in x.degrees()})
        iso.validate()


def test_truncations_give_maps():
    x = fund0()
    upper, proj = truncate_ge(x, 1)
    lower, incl = truncate_le(x, 0)
    proj.validate()
    incl.validate()
    assert upper.d_min == 1 and lower.d_max == 0


# -- homotopy solving ----------------------------------------------------------

def test_identity_of_minimal_complex_not_nullhomotopic():
    assert is_nullhomotopic(ChainMap.identity(fundpur())) is None
    assert is_nullhomotopic(ChainMap.identity(unit_complex())) is None


def test_zero_map_nullhomotopic():
    f = ChainMap.of(fundpur(), fundpur(), {})
    f.validate()
    h = is_nullhomotopic(f)
    assert h is not None and h.certifies(f)


def test_beta_on_cone_beta_nullhomotopic():
    # the weight-shift map of the cone of itself dies, with identity homotopy
    cb = cone_beta()
    f = ChainMap.of(twist_complex(cb, -1), cb,
                    {n: BitMatrix.identity(cb.dim(n)) for n in cb.degrees()})
    f.validate()
    h = is_nullhomotopic(f)
    assert h is not None


def test_homotopy_certificate_property():
    rng = random.Random(13)
    for _ in range(5):
        x = random_complex(rng, C2, 3)
        y = random_complex(rng, C2, 3)
        f = random_chain_map(rng, x, y)
        h = is_nullhomotopic(f)
        if h is not None:
            assert h.certifies(f)


# -- minimization ---------------------------------------------------------------

def test_minimize_certificates():
    rng = random.Random(17)
    for kind, n in ((C2, 3), (FILT, 3), (F2, 4)):
        for _ in range(4):
            x = random_complex(rng, kind, n)
            mf = minimize(x)
            pi = mf.proj.compose(mf.incl)
            for m in mf.complex.degrees():
                assert pi.comp(m).is_identity()
            ip = mf.incl.compose(mf.proj)
            assert is_nullhomotopic(ip.add(ChainMap.identity(x))) is not None


def test_minimal_form_has_no_unit_entries():
    rng = random.Random(19)
    # sigma between two equal free summands is a unit that is not the identity
    free, e = C2Module.free(1), realize(e_label(1, 0))
    xs = [(C2, build_complex(C2, {0: free, 1: free}, {1: free.sigma})),
          (FILT, build_complex(FILT, {0: e, 1: e}, {1: e.module.sigma}))]
    for _, x in xs:
        validate_complex(x)
    for kind, size in ((FILT, 3), (C2, 3), (F2, 4)):
        for _ in range(5):
            x = random_complex(rng, kind, size)
            # a plain tensor square is large enough for many eliminations
            xs.append((kind, tensor_complex(x, x) if kind == C2 else x))
    for kind, x in xs:
        mf = minimize(x)
        for n in mf.complex.degrees():
            if n == mf.complex.d_min:
                continue
            labs_t = labels_at(mf, n - 1)
            labs_s = labels_at(mf, n)
            offs_t, offs_s = _offsets(kind, labs_t), _offsets(kind, labs_s)
            d = mf.complex.diff(n)
            for i, lt in enumerate(labs_t):
                for j, ls in enumerate(labs_s):
                    if lt != ls:
                        continue
                    dt = _label_dim(kind, lt)
                    block = gather(d, range(offs_t[i], offs_t[i] + dt),
                                   range(offs_s[j], offs_s[j] + dt))
                    assert block.inverse() is None


def test_find_chain_iso_none_only_when_proved():
    # term dimensions differ
    assert find_chain_iso(single(F2, 2), single(F2, 1)) is None
    assert find_chain_iso(single(F2, 1), single(F2, 1, 1)) is None
    # equal dimensions, but hom(1(1), 1(0)) = 0: there is no chain map at all
    x, y = (single(FILT, realize(unit_label(m))) for m in (1, 0))
    assert find_chain_iso(x, y) is None


def test_find_chain_iso_decides_by_signature():
    # the identity 1(0) -> 1(1) is a chain map, but its inverse is not
    # filtered; the signatures 1(0) and 1(1) already prove there is no iso
    x, y = (single(FILT, realize(unit_label(m))) for m in (0, 1))
    assert find_chain_iso(x, y) is None


def test_find_chain_iso_raises_when_it_gives_up():
    # x != y (equal complexes get the identity before any search); each of
    # the three basis maps x -> y sets one free entry, and an isomorphism
    # needs two, so only the random sums can find one and tries=0 allows none
    x, y = (build_complex(F2, {0: 2, 1: 1}, {1: BitMatrix.from_rows(d)}) for d in ([[1], [0]], [[0], [1]]))
    validate_complex(x)
    validate_complex(y)
    with pytest.raises(SearchExhausted):
        find_chain_iso(x, y, tries=0)
    u, uinv = find_chain_iso(x, y)
    assert uinv.compose(u) == ChainMap.identity(x)


def test_find_chain_iso_of_equal_complexes_is_the_identity():
    # minimal forms of tensor products, 16 to 63 dims: random sums of their
    # chain-map bases are rarely invertible, and the search used to give up
    rng = random.Random("find_chain_iso/equal")
    done = 0
    while done < 10:
        x, y = (random_complex(rng, FILT, rng.randint(2, 3)) for _ in range(2))
        m = minimize(tensor_complex(x, y)).complex
        if not 16 <= m.total_dim() <= 63:
            continue
        again = minimize(tensor_complex(x, y)).complex
        assert again == m and again is not m
        u, uinv = find_chain_iso(m, again)
        assert u == ChainMap.identity(m) and chain_iso_inverse(u) == uinv
        done += 1


def test_contractible_summand_invariance():
    rng = random.Random(23)
    for _ in range(4):
        x = random_complex(rng, FILT, 2)
        y = random_complex(rng, FILT, 2)
        padded = direct_sum_complex(x, cone(ChainMap.identity(y)))
        assert minimize(padded).complex.is_zero() == minimize(x).complex.is_zero()


def test_minimize_graded_fundamental_sequence():
    from ttfilt.functors import gr_complex

    # the admissible sequence has contractible graded pieces
    assert minimize(gr_complex(fund_seq(1))).complex.is_zero()
    assert minimize(gr_complex(fund_seq(3))).complex.is_zero()
    assert not minimize(gr_complex(fund0())).complex.is_zero()


def test_invertibility():
    for n in range(-4, 5):
        t = tensor_complex(invertpur_pow(n), invertpur_pow(-n))
        m = minimize(t).complex
        assert m == unit_c2()


def test_invertpur_power_shapes():
    for n in range(1, 5):
        x = invertpur_pow(n)
        assert x.d_min == 0 and x.d_max == n
        assert x.term(n).module_split() == (1, 0)
        assert all(x.term(i).module_split() == (0, 1) for i in range(n))
        y = invertpur_pow(-n)
        assert y.d_min == -n and y.d_max == 0
        assert y.term(-n).module_split() == (1, 0)
    # the literal tensor power minimizes to the canonical shape
    lit = tensor_complex(invertpur_pow(1), tensor_complex(invertpur_pow(1), invertpur_pow(1)))
    assert signature(minimize(lit).complex) == signature(invertpur_pow(3))


_K, _REG = C2Module.trivial(1), C2Module.free(1)
_ETA, _EPS = BitMatrix.from_rows([[1], [1]]), BitMatrix.from_rows([[1, 1]])
_ETAEPS = BitMatrix.from_rows([[1, 1], [1, 1]])


def _splice_literal(m):
    """k(m+1) -eta-> kC2(m) -eta.eps-> ... -eta.eps-> kC2(1) -eps-> k(0)."""
    if m <= 0:
        return Complex(C2, 0, (), ())
    terms = {m + 1: _K, 0: _K} | {i: _REG for i in range(1, m + 1)}
    diffs = {m + 1: _ETA, 1: _EPS} | {i: _ETAEPS for i in range(2, m + 1)}
    return build_complex(C2, terms, diffs)


def _invertpur_literal(n):
    """k(n) -eta-> kC2(n-1) ... kC2(0) for n > 0; kC2(0) ... kC2(n+1) -eps-> k(n) for n < 0."""
    if n == 0:
        return build_complex(C2, {0: _K}, {})
    if n > 0:
        terms = {n: _K} | {i: _REG for i in range(n)}
        diffs = {n: _ETA} | {i: _ETAEPS for i in range(1, n)}
    else:
        terms = {n: _K} | {i: _REG for i in range(n + 1, 1)}
        diffs = {n + 1: _EPS} | {i: _ETAEPS for i in range(n + 2, 1)}
    return build_complex(C2, terms, diffs)


@pytest.mark.parametrize("m", range(-1, 8))
def test_fundpur_splice_matches_the_literal_complex(m):
    validate_complex(_splice_literal(m))
    assert fundpur_splice(m) == _splice_literal(m)


@pytest.mark.parametrize("n", range(-8, 9))
def test_invertpur_pow_matches_the_literal_complex(n):
    validate_complex(_invertpur_literal(n))
    assert invertpur_pow(n) == _invertpur_literal(n)


def test_fundpur_is_the_literal_three_term_complex():
    literal = build_complex(C2, {2: _K, 1: _REG, 0: _K}, {2: _ETA, 1: _EPS})
    validate_complex(literal)
    assert fundpur() == literal


@pytest.mark.parametrize("make, bottom, top, diff, support", [
    (koszul_T, e_label(1, 1), e_label(1, 0), BitMatrix.identity(2), {"Ls", "Ms", "Ns"}),
    (cone_beta, unit_label(1), unit_label(0), BitMatrix.identity(1), {"L", "Ls", "Ms", "Ns"}),
    (cone_omega, e_label(0, 1), e_label(1, 0), BitMatrix.identity(2), {"Ls", "Ms", "Ns"}),
], ids=["T", "conebeta", "coneomega"])
def test_catalog_cones_are_the_literal_two_term_complexes(make, bottom, top, diff, support):
    # each is the cone of an identity map top -> bottom: top in degree 1, bottom in degree 0
    literal = build_complex(FILT, {1: realize(top), 0: realize(bottom)}, {1: diff})
    validate_complex(literal)
    assert make() == literal
    assert supp(make()) == support


# -- named complexes -----------------------------------------------------------

def test_named_catalog():
    assert named("fund0") == fund0()
    assert named("invertpur", -2) == invertpur_pow(-2)
    with pytest.raises(ValueError):
        named("nonsense")
    with pytest.raises(ValueError):
        named("fund0", 3)


def test_cone_rho_model():
    assert cone_rho() == shift(single(FILT, realize(e_label(1, 0))), 1)


def test_fund_seq_forgets_to_fundpur():
    from ttfilt.functors import fgt_complex

    for l in (1, 2, 4):
        assert fgt_complex(fund_seq(l)) == fundpur()
    assert fgt_complex(fund0()) == fundpur()


def test_injres_terms():
    x = injres_trunc(3)
    assert x.d_min == -2 and x.d_max == 0
    sig = signature(x)
    assert sig[0] == FormalSum.of(e_label(1, -1))
    assert sig[-2] == FormalSum.of(e_label(1, -3))


def test_injres_trunc_is_cached_and_equals_a_fresh_build():
    for j in (0, 1, 2, 5, 40):
        assert injres_trunc(j) is injres_trunc(j)
        fresh = injres_trunc.__wrapped__(j)
        assert fresh is not injres_trunc(j) and fresh == injres_trunc(j)
        validate_complex(fresh)
    assert injres_trunc.cache_info().maxsize <= 64


def test_upsilon_cone_is_pure_regular():
    from ttfilt.spectrum import pwz_map, supp

    c = cone(pwz_map(upsilon()))
    assert supp(c) == frozenset({"N", "Ns"})


# -- tensor-nilpotence ----------------------------------------------------------

def _eps_power_map(l: int) -> ChainMap:
    f = eps_tilde()
    for _ in range(l - 1):
        f = tensor_map(f, eps_tilde())
    mf = minimize(f.source)
    tgt = minimize(f.target)
    return ChainMap.of(mf.complex, tgt.complex,
                       {n: tgt.proj.comp(n).mul(f.comp(n)).mul(mf.incl.comp(n))
                        for n in mf.complex.degrees()})


@pytest.mark.parametrize("build_m", [
    lambda: fundpur(),
    lambda: direct_sum_complex(fundpur(), shift(fundpur(), 1)),
    lambda: tensor_complex(fundpur(), fundpur()),
])
def test_nilpotence_bound(build_m):
    m = build_m()
    bound = width(m) + 1
    idm = ChainMap.identity(m)
    found = None
    for l in range(1, bound + 1):
        f = tensor_map(_eps_power_map(l), idm)
        if is_nullhomotopic(f) is not None:
            found = l
            break
    assert found is not None and found <= bound


def test_eps_tilde_not_nilpotent_on_nonacyclic():
    # a single power does not vanish against the unit complex
    f = tensor_map(_eps_power_map(1), ChainMap.identity(unit_c2()))
    assert is_nullhomotopic(f) is None
