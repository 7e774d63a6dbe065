import random

import pytest

from ttfilt.gf2 import BitMatrix, C2Module
from ttfilt.filtmod import FiltModule, e_label, realize, realize_sum, unit_label
from ttfilt.chains import (
    C2,
    FILT,
    ChainMap,
    Complex,
    cone,
    cone_beta,
    direct_sum_complex,
    dual_complex,
    fund0,
    fund_seq,
    fundpur,
    fundpur_splice,
    injres_trunc,
    invertpur_pow,
    koszul_T,
    minimize,
    shift,
    signature,
    single,
    tensor_complex,
    tensor_map,
    twist_complex,
    is_nullhomotopic,
    validate_complex,
)
from ttfilt.functors import (
    betti,
    fgt_complex,
    gr_complex,
    gr_component_complex,
    gr_component_map,
    hom_DE,
    homology,
    is_exact_F2,
    is_zero_DE,
    max_weight,
    min_weight,
    pwz_complex,
    res_complex,
    rwz,
    sta_complex,
    tate_dim,
    tfgt,
)
from ttfilt.samples import random_complex, random_formal_sum

from helpers import (apply, brute_exact_f2, brute_kernel_vectors, brute_tate_dim, gr_complex_by_placement, hom_basis,
                     hom_DE_by_single_solves, scrambled_module, unit_complex, weight_zero_part)


def unit_c2():
    return single(C2, C2Module.trivial(1))


def kc2():
    return single(C2, C2Module.free(1))


# -- gr / fgt -------------------------------------------------------------------

def test_gr_of_fund0_is_fundpur():
    assert gr_complex(fund0()) == fundpur()


def test_gr_of_filtered_regular():
    g = gr_complex(single(FILT, realize(e_label(1, 0))))
    assert g.term(0).module_split() == (2, 0)


def test_gr_pwz_section_law():
    rng = random.Random(41)
    for _ in range(8):
        y = random_complex(rng, C2, 3)
        assert gr_complex(pwz_complex(y)) == y


def test_gr_matches_the_placement_oracle():
    """Terms zero inside and at the ends of the range, weight pieces zero
    inside a term (E(l, m) for l >= 2) and at the ends, twisted and dual
    complexes."""
    rng = random.Random(31)

    def term():
        if rng.random() < 1 / 3:
            return FiltModule.zero()
        return realize_sum(random_formal_sum(rng, max_summands=3, max_l=3, weight_span=(-3, 3)))

    zero = Complex(FILT, 0, (), ())
    assert gr_complex(zero) == gr_complex_by_placement(zero)
    for _ in range(12):
        x = random_complex(rng, FILT, rng.randint(1, 4), term, d_min=rng.randint(-2, 1))
        for y in (x, twist_complex(x, rng.randint(-3, 3)), dual_complex(x),
                  direct_sum_complex(x, twist_complex(x, 2))):
            assert gr_complex(y) == gr_complex_by_placement(y)
            # each weight piece is assembled without checks
            for w in range(min_weight(y) - 1, max_weight(y) + 2):
                validate_complex(gr_component_complex(y, w))


def test_fgt_of_fund0():
    assert fgt_complex(fund0()) == fundpur()


def test_homology_values():
    assert homology(fundpur()) == {}
    assert homology(kc2()) == {0: (0, 1)}
    assert homology(single(C2, C2Module.trivial(1), 2)) == {2: (1, 0)}


# -- residue building blocks ------------------------------------------------------

def test_res_exactness():
    assert is_exact_F2(res_complex(fundpur()))
    assert not is_exact_F2(res_complex(unit_c2()))
    assert is_exact_F2(res_complex(single(C2, C2Module.trivial(0))))


def test_res_exactness_against_brute_force():
    rng = random.Random(43)
    for _ in range(6):
        y = random_complex(rng, C2, 3, term_gen=lambda: C2Module.standard(rng.randint(0, 1), rng.randint(0, 1)))
        z = res_complex(y)
        assert is_exact_F2(z) == brute_exact_f2(z)


def test_betti_against_brute_force():
    # h_n = log2 |ker d_n| - log2 |im d_{n+1}|, by enumeration
    rng = random.Random(47)
    for _ in range(12):
        y = random_complex(rng, C2, rng.randint(1, 4), d_min=rng.randint(-2, 2),
                           term_gen=lambda: C2Module.standard(rng.randint(0, 1), rng.randint(0, 1)))
        z = res_complex(y)
        brute = {n: len(brute_kernel_vectors(z.diff(n))).bit_length()
                 - len({apply(z.diff(n + 1), v) for v in range(1 << z.dim(n + 1))}).bit_length()
                 for n in z.degrees()}
        assert betti(z) == {n: h for n, h in brute.items() if h}
        assert is_exact_F2(z) == (not betti(z))


def test_sta_values():
    assert sta_complex(kc2()).is_zero()
    s = sta_complex(unit_c2())
    assert s.dim(0) == 1
    sf = sta_complex(fundpur())
    assert [sf.dim(n) for n in range(0, 3)] == [1, 0, 1]
    assert not is_exact_F2(sf)


def test_tate_values():
    assert tate_dim(unit_c2()) == 1
    assert tate_dim(kc2()) == 0
    assert tate_dim(fundpur()) == 0


def test_tate_against_brute_force():
    cases = [unit_c2(), kc2(), fundpur(), invertpur_pow(2),
             direct_sum_complex(unit_c2(), shift(unit_c2(), 1)),
             cone(ChainMap.identity(kc2()))]
    for y in cases:
        assert tate_dim(y) == brute_tate_dim(y)
    rng = random.Random(47)
    for _ in range(6):
        y = random_complex(rng, C2, 3, term_gen=lambda: C2Module.standard(rng.randint(0, 1), rng.randint(0, 1)))
        if y.total_dim() <= 12:
            assert tate_dim(y) == brute_tate_dim(y)


def test_tate_multiplicative():
    rng = random.Random(53)
    for _ in range(8):
        x = random_complex(rng, C2, 2)
        y = random_complex(rng, C2, 2)
        assert tate_dim(tensor_complex(x, y)) == tate_dim(x) * tate_dim(y)


def test_residues_homotopy_invariant():
    rng = random.Random(59)
    for _ in range(4):
        y = random_complex(rng, C2, 3)
        pad = direct_sum_complex(y, cone(ChainMap.identity(random_complex(rng, C2, 2))))
        assert tate_dim(pad) == tate_dim(y)
        assert is_exact_F2(sta_complex(pad)) == is_exact_F2(sta_complex(y))
        assert is_exact_F2(res_complex(pad)) == is_exact_F2(res_complex(y))


# -- rwz / tfgt -------------------------------------------------------------------

def test_rwz_unit():
    assert rwz(unit_complex()) == unit_c2()
    assert rwz(single(FILT, realize(unit_label(-1)))).is_zero()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_rwz_of_filtered_regular(l):
    m = minimize(rwz(single(FILT, realize(e_label(l, 0))))).complex
    expected = minimize(direct_sum_complex(kc2(), shift(fundpur_splice(l - 1), -l))).complex
    assert signature(m) == signature(expected)


def test_rwz_projection_formula():
    rng = random.Random(61)
    for _ in range(5):
        x = random_complex(rng, FILT, 2)
        m = random_complex(rng, C2, 2)
        lhs = minimize(rwz(tensor_complex(x, pwz_complex(m)))).complex
        rhs = minimize(tensor_complex(rwz(x), m)).complex
        assert signature(lhs) == signature(rhs)


def _invert_filt(n):
    return twist_complex(pwz_complex(invertpur_pow(n)), n)


def test_rwz_effective_stability():
    rng = random.Random(67)
    for _ in range(5):
        x = random_complex(rng, FILT, 2,
                           term_gen=lambda: scrambled_module(rng, random_formal_sum(rng, 2, weight_span=(0, 2))))
        for n in (1, 2):
            lhs = minimize(rwz(tensor_complex(x, _invert_filt(n)))).complex
            rhs = minimize(rwz(x)).complex
            assert signature(lhs) == signature(rhs)


def test_tfgt_unit_twists():
    for n in range(-3, 4):
        assert tfgt(single(FILT, realize(unit_label(n)))) == invertpur_pow(-n)


def test_tfgt_cone_beta():
    assert signature(tfgt(cone_beta())) == signature(shift(fundpur(), -1))


def test_tfgt_pwz_roundtrip():
    rng = random.Random(71)
    for _ in range(10):
        y = random_complex(rng, C2, 3)
        got = tfgt(pwz_complex(y))
        assert signature(got) == signature(minimize(y).complex)


def test_tfgt_matches_fgt_homology():
    rng = random.Random(73)
    for _ in range(15):
        x = random_complex(rng, FILT, 3)
        assert homology(tfgt(x)) == homology(fgt_complex(x))


def test_is_zero_DE():
    assert is_zero_DE(fund_seq(1))
    assert not is_zero_DE(fund0())
    assert is_zero_DE(cone(ChainMap.identity(fund0())))
    assert is_zero_DE(single(FILT, realize(unit_label(0))).__class__(FILT, 0, (), ()))


# -- derived homs ------------------------------------------------------------------

def test_hom_DE_unit_twists():
    u = unit_complex()
    assert hom_DE(u, u) == {0: 1}
    assert hom_DE(u, twist_complex(u, 1)) == {0: 1, 1: 1}
    assert hom_DE(u, twist_complex(u, 3)) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert hom_DE(u, twist_complex(u, -2)) == {}


def test_hom_DE_respects_shift():
    u = unit_complex()
    t = twist_complex(u, 2)
    base = hom_DE(u, t)
    # maps into y[1] in shift n are maps into y in shift n + 1
    assert hom_DE(u, shift(t, 1)) == {n - 1: d for n, d in base.items()}


def test_hom_DE_projective_target():
    # maps into the projective-injective generators live in shift zero only
    u = unit_complex()
    e1 = single(FILT, realize(e_label(1, 0)))
    dims = hom_DE(u, e1)
    assert set(dims) <= {0}


def test_hom_DE_matches_single_solves_on_random_complexes():
    # sources with several degrees and nonzero differentials, so every hom
    # space in a shift gets an offset and both components of d(g) occur
    rng = random.Random(2024)
    nonzero = 0
    for _ in range(40):
        x = random_complex(rng, FILT, rng.randint(1, 3), d_min=rng.randint(-1, 1))
        y = random_complex(rng, FILT, rng.randint(1, 3))
        x, y = twist_complex(x, rng.randint(-3, 3)), twist_complex(y, rng.randint(-3, 3))
        dims = hom_DE(x, y)
        assert dims == hom_DE_by_single_solves(x, y)
        nonzero += bool(dims)
    assert nonzero >= 20


def test_hom_DE_shift_zero_of_modules_is_their_hom_space():
    # a filtered equivariant map a -> b is a sigma-fixed vector of the
    # weight-zero layer of dual(a) (x) b, and between modules in degree 0
    # the derived hom in shift 0 is the hom space
    rng = random.Random(2027)
    nonzero = 0
    for _ in range(200):
        a, b = (scrambled_module(rng, random_formal_sum(rng, 3)) for _ in range(2))
        count = len(hom_basis(a, b))
        assert hom_DE(single(FILT, a), single(FILT, b)).get(0, 0) == count
        nonzero += bool(count)
    assert nonzero >= 150


# -- key lemma instances --------------------------------------------------------------

def _key_lemma_maps():
    """Chain maps from the unit with vanishing weight-zero graded piece."""
    u = unit_complex()
    out = []
    eta = BitMatrix.from_rows([[1], [1]])
    one = BitMatrix.identity(1)
    for m in (1, 2, 3):
        tgt = twist_complex(fund0(), m)
        out.append(ChainMap.of(u, tgt, {0: one}))
        out.append(ChainMap.of(u, shift(tgt, -1), {0: eta}))
    # the weight-shift map itself
    cb = twist_complex(unit_complex(), 1)
    out.append(ChainMap.of(u, cb, {0: one}))
    return out


@pytest.mark.parametrize("idx", range(7))
def test_key_lemma(idx):
    f = _key_lemma_maps()[idx]
    f.validate()
    g0 = gr_component_map(f, 0)
    assert is_nullhomotopic(g0) is not None
    square = tensor_map(f, f)
    final = tensor_map(square, ChainMap.identity(koszul_T()))
    assert is_nullhomotopic(final) is not None


def test_gr_component_complex():
    g0 = gr_component_complex(fund0(), 0)
    assert g0 == fundpur()
    g1 = gr_component_complex(fund0(), 1)
    assert g1.is_zero()


def _rwz_oracle(x):
    """rwz the long way: the weight-zero part of the whole filtered tensor."""
    j = max_weight(x) + 1
    if x.is_zero() or j <= 0:
        return Complex(C2, 0, (), ())
    return weight_zero_part(tensor_complex(injres_trunc(j), x))


def test_rwz_matches_the_weight_zero_part_of_the_tensor():
    rng = random.Random(79)
    cases = [random_complex(rng, FILT, rng.randint(1, 3)) for _ in range(40)]
    cases += [tensor_complex(random_complex(rng, FILT, 2), random_complex(rng, FILT, 2)) for _ in range(8)]
    cases += [fund0(), koszul_T(), cone_beta(), single(FILT, realize(e_label(3, 1)))]
    for x in cases:
        for r in (-3, 0, 2):
            y = twist_complex(x, r)
            assert rwz(y) == _rwz_oracle(y)


def test_subquotient_functors_pass_the_full_validation():
    # rwz, sta and the gr pieces are assembled unchecked; the public check re-runs here
    from ttfilt.motives import MAPNAMES, MotiveExpr, to_filtered
    from helpers import CONSTANT_LEAVES

    rng = random.Random(83)
    cases = [random_complex(rng, FILT, rng.randint(1, 4)) for _ in range(40)]
    cases += [single(FILT, realize(e_label(l, 0))) for l in range(9)]
    atoms = [MotiveExpr("atom", name) for name in CONSTANT_LEAVES]
    atoms += [MotiveExpr("cone", name) for name in MAPNAMES]
    atoms += [MotiveExpr("atom", name, (l,)) for name in ("fundl", "Lpure") for l in (1, 2, 3)]
    cases += [to_filtered(e) for e in atoms]
    for x in cases:
        for r in (0, -min_weight(x)):
            validate_complex(rwz(twist_complex(x, r)))
        validate_complex(sta_complex(fgt_complex(x)))
        for w in range(min_weight(x) - 1, max_weight(x) + 2):
            validate_complex(gr_component_complex(x, w))
