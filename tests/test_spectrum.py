import random

import pytest

from ttfilt.filtmod import e_label, realize, unit_label
from ttfilt.chains import (
    FILT,
    Complex,
    direct_sum_complex,
    fund0,
    koszul_T,
    shift,
    single,
    tensor_complex,
    twist_complex,
)
from ttfilt.functors import is_exact_F2, is_zero_DE, min_weight, sta_complex, tfgt
from ttfilt.samples import random_complex
from ttfilt.spectrum import (
    CLASS_GENERATORS,
    PRIMES,
    SymbolicSet,
    atlas,
    classify,
    compare,
    ideal_contains,
    is_specialization_closed,
    label_support,
    supp,
    supp_KbA,
    supp_detail,
    support_text,
    _MR_BOUND,
    _is_prime_number,
    verify_prime_generators,
)
from ttfilt.motives import GENERATORS
from ttfilt.shell import evaluate, parse

from helpers import is_prime_by_trial_division, unit_complex


def ev(text):
    return evaluate(parse(text))


def E(l, m=0):
    return single(FILT, realize(e_label(l, m)))


# -- supports -----------------------------------------------------------------

SUPPORT_TABLE = [
    ("E(0,0)", {"N", "Ns"}),
    ("E(1,0)", {"Ls", "Ms", "N", "Ns"}),
    ("E(2,0)", {"L", "Ls", "Ms", "N", "Ns"}),
    ("cone(beta)", {"L", "Ls", "Ms", "Ns"}),
    ("fund0", {"L", "Ls"}),
    ("T", {"Ls", "Ms", "Ns"}),
    ("cone(beta) * E(0,0)", {"Ns"}),
    ("fund0 * E(1,0)", {"Ls"}),
    ("1(0)", set(PRIMES)),
    ("0", set()),
]


@pytest.mark.parametrize("text,expected", SUPPORT_TABLE)
def test_supports(text, expected):
    assert supp(ev(text)) == frozenset(expected)


def test_supp_KbA():
    from ttfilt.chains import fundpur
    from ttfilt.gf2 import C2Module
    from ttfilt.chains import C2

    assert supp_KbA(fundpur()) == frozenset({"cL"})
    assert supp_KbA(single(C2, C2Module.free(1))) == frozenset({"cN"})
    assert supp_KbA(single(C2, C2Module.trivial(1))) == frozenset({"cL", "cM", "cN"})
    assert supp_KbA(Complex(C2, 0, (), ())) == frozenset()


def test_supports_specialization_closed():
    for text, _ in SUPPORT_TABLE:
        assert is_specialization_closed(supp(ev(text)))


def test_support_laws_on_samples():
    rng = random.Random(83)
    atoms = ["E(0,0)", "E(1,0)", "fund0", "cone(beta)", "T", "1(1)", "E(2,-1)"]
    for _ in range(12):
        a, b = rng.choice(atoms), rng.choice(atoms)
        x, y = ev(a), ev(b)
        sx, sy = supp(x), supp(y)
        assert supp(direct_sum_complex(x, y)) == sx | sy
        assert supp(tensor_complex(x, y)) == sx & sy
        assert supp(shift(x, rng.randint(-2, 2))) == sx


def test_conservativity_echo():
    for text, expected in SUPPORT_TABLE:
        x = ev(text)
        assert is_zero_DE(x) == (supp(x) == frozenset())


def test_gr_tfgt_image_consistency():
    from ttfilt.functors import gr_complex, tfgt

    relabel_pure = {"cL": "Ls", "cM": "Ms", "cN": "Ns"}
    relabel_mixed = {"cL": "L", "cM": "M", "cN": "N"}
    for text, _ in SUPPORT_TABLE:
        x = ev(text)
        s = supp(x)
        assert {relabel_pure[c] for c in supp_KbA(gr_complex(x))} == s & {"Ls", "Ms", "Ns"}
        assert {relabel_mixed[c] for c in supp_KbA(tfgt(x))} == s & {"L", "M", "N"}


# the texts of acceptance tests 1, 2 and 12
_L_CORPUS = sorted({"E(0,0)", "E(1,0)", "E(2,0)", "E(3,0)", "E(4,0)", "cone(beta)", "fund0", "T",
                    "cone(beta) * E(0,0)", "fund0 * E(1,0)", "1(0)", "1(1)", "1(-1)", "E(1,-1)",
                    "conerho", *CLASS_GENERATORS.values()})


def _L_by_tfgt(x):
    """The L residue test the long way: untwisted and minimized by tfgt."""
    return not is_exact_F2(sta_complex(tfgt(x)))


@pytest.mark.parametrize("text", _L_CORPUS)
def test_L_test_matches_tfgt_on_the_acceptance_corpus(text):
    for r in (-3, 0, 2):
        x = twist_complex(ev(text), r)
        assert supp_detail(x)["L"] == _L_by_tfgt(x)


def test_L_test_matches_tfgt_on_random_complexes():
    rng = random.Random(89)
    seen = set()
    for _ in range(200):
        x = random_complex(rng, FILT, rng.randint(2, 3))
        # move the minimum weight to a random value in -3..3, zero excluded
        x = twist_complex(x, rng.choice((-3, -2, -1, 1, 2, 3)) - min_weight(x))
        got = supp_detail(x)["L"]
        assert got == _L_by_tfgt(x)
        seen.add((min_weight(x) > 0, got))
    assert len(seen) == 4  # both answers, under both signs of the minimum weight


def test_localization_pictures():
    # the derived-category and stable-category shadows of the support
    from ttfilt.functors import fgt_complex, is_exact_F2, res_complex, sta_complex, tate_dim, tfgt

    for text, _ in SUPPORT_TABLE:
        x = ev(text)
        s = supp(x)
        f = fgt_complex(x)
        derived = set()
        if not is_exact_F2(res_complex(f)):
            derived.add("N")
        if tate_dim(f):
            derived.add("M")
        assert derived == s & {"M", "N"}
        t = tfgt(x)
        stable = set()
        if not is_exact_F2(sta_complex(t)):
            stable.add("L")
        if tate_dim(t):
            stable.add("M")
        assert stable == s & {"M", "L"}


# -- classification -------------------------------------------------------------

def test_classify_unit_and_zero():
    assert classify(unit_complex()).support == frozenset(PRIMES)
    assert classify(Complex(FILT, 0, (), ())).support == frozenset()


def test_classify_complement_of_generic():
    cls = classify(E(2))
    assert cls.support == frozenset(PRIMES) - {"M"}


def test_fourteen_classes_realized():
    seen = {}
    for expected, text in CLASS_GENERATORS.items():
        got = supp(ev(text))
        assert got == expected
        seen[got] = text
    assert len(seen) == 14


def test_ideal_contains():
    assert ideal_contains([E(1)], E(0))
    assert not ideal_contains([E(0)], fund0())
    assert ideal_contains([unit_complex()], koszul_T())
    assert ideal_contains([], Complex(FILT, 0, (), ()))


# -- atlases ---------------------------------------------------------------------

def test_atlas_counts():
    assert len(atlas("DATM2").closed_subsets()) == 14
    assert len(atlas("DTM2").closed_subsets()) == 6
    assert len(atlas("DAM2").closed_subsets()) == 5
    assert len(atlas("KbA").closed_subsets()) == 5


def test_atlas_closures():
    datm2 = atlas("DATM2")
    assert datm2.closure_of("M") == frozenset(PRIMES)
    assert datm2.closure_of("L") == frozenset({"L", "Ls"})
    assert datm2.closure_of("Ms") == frozenset({"Ls", "Ms", "Ns"})
    assert datm2.closure_of("Ns") == frozenset({"Ns"})


@pytest.mark.parametrize("name", ["DATM2", "KbA", "DAM2", "DTM2"])
def test_atlas_closure_of_an_unknown_point(name):
    with pytest.raises(ValueError, match="unknown point: X"):
        atlas(name).closure_of("X")


def test_atlas_unknown():
    with pytest.raises(ValueError):
        atlas("nope")


def test_integral_atlas_closures():
    z = atlas("DATMZ")
    assert z.closure_of("P0").all_e and z.closure_of("P0").all_m
    assert z.closure_of("e(3)").points == frozenset({"e(3)", "m(3)"})
    assert z.closure_of("N") == z.closure_of("e(2)")
    assert z.closure_of("Ms").points == frozenset({"Ms", "Ls", "m(2)"})
    with pytest.raises(ValueError):
        z.closure_of("e(4)")


def test_prime_test_matches_trial_division_below_20000():
    assert [l for l in range(-2, 20000) if _is_prime_number(l) != is_prime_by_trial_division(l)] == []


# a Carmichael number, then the smallest strong pseudoprimes to the bases 2 .. 7,
# 2 .. 31 and 2 .. 37: the last is caught by base 41 alone
@pytest.mark.parametrize("l", [561, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_prime_test_rejects_strong_pseudoprimes(l):
    assert not _is_prime_number(l)


# the last is the largest prime below the bound
@pytest.mark.parametrize("l", [10**15 + 37, 2**61 - 1, 3317044064679887385961813])
def test_prime_test_reads_large_prime_indices(l):
    assert _is_prime_number(l)


def test_prime_test_refuses_indices_from_its_bound():
    # the bound is itself a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="too large"):
        atlas("DATMZ").closure_of(f"e({_MR_BOUND})")


INTEGRAL_CLOSED_CASES = [
    (SymbolicSet(frozenset({"m(3)"})), True),
    (SymbolicSet(frozenset({"m(2)"})), True),
    (SymbolicSet(frozenset({"e(3)"})), False),
    (SymbolicSet(frozenset({"e(3)", "m(3)"})), True),
    (SymbolicSet(frozenset({"e(5)", "m(3)"})), False),
    (SymbolicSet(frozenset({"Ls"})), True),
    (SymbolicSet(frozenset({"L"})), False),
    (SymbolicSet(frozenset({"L", "Ls"})), True),
    (SymbolicSet(frozenset({"Ms"})), False),
    (SymbolicSet(frozenset({"Ms", "Ls", "m(2)"})), True),
    (SymbolicSet(frozenset({"M"})), False),
    (SymbolicSet(frozenset({"M", "L", "Ls", "Ms", "e(2)", "m(2)"})), True),
    (SymbolicSet(frozenset(), all_e=True, all_m=True), False),
    (SymbolicSet(frozenset(), all_e=True, all_m=False), False),
    (SymbolicSet(frozenset(), all_e=False, all_m=True), False),
    (SymbolicSet(frozenset({"P0"}), all_e=True, all_m=True), True),
    (SymbolicSet(frozenset({"P0", "Ls"}), all_e=True, all_m=True), True),
    (SymbolicSet(frozenset({"P0", "L", "Ls"}), all_e=True, all_m=True), True),
    (SymbolicSet(frozenset({"P0"}), all_e=True, all_m=False), False),
    (SymbolicSet(frozenset({"P0"}), all_e=False, all_m=False), False),
    (SymbolicSet(frozenset({"Ns"}),), True),
    (SymbolicSet(frozenset({"N"}),), False),
]


@pytest.mark.parametrize("sset,expected", INTEGRAL_CLOSED_CASES)
def test_integral_atlas_closed_sets(sset, expected):
    assert atlas("DATMZ").is_closed(sset) == expected


def test_integral_atlas_generic_flag():
    z = atlas("DATMZ")
    assert z.generic_point_flags["conjectural_for_general_base"]
    assert z.generic_point_flags["unconditional_default"]


def test_projection_maps():
    expect_dtm = {"Ls": "zero", "Ms": "zero", "Ns": "zero",
                  "L": "conerho", "N": "conebeta", "M": "conebetarho"}
    expect_dam = {"L": "cL", "Ls": "cL", "M": "cM", "Ms": "cM", "N": "cN", "Ns": "cN"}
    for p in PRIMES:
        assert compare("DATM2->DTM2", p) == expect_dtm[p]
        assert compare("DATM2->DAM2", p) == expect_dam[p]
    with pytest.raises(ValueError):
        compare("DATM2->DTM2", "cL")


def test_projection_maps_respect_order():
    # the maps are monotone for the specialization order
    datm2, dtm2, dam2 = atlas("DATM2"), atlas("DTM2"), atlas("DAM2")
    for p in PRIMES:
        for q in datm2.closure_of(p):
            assert compare("DATM2->DTM2", q) in dtm2.closure_of(compare("DATM2->DTM2", p))
            assert compare("DATM2->DAM2", q) in dam2.closure_of(compare("DATM2->DAM2", p))


# -- prime generators --------------------------------------------------------------

def test_verify_prime_generators():
    checks = verify_prime_generators()
    assert len(checks) == 15
    for c in checks:
        assert c.ok, f"{c.prime} via {c.description}: {c.computed} != {c.expected}"


def test_support_text_order():
    assert support_text(frozenset({"Ns", "L", "Ms"})) == "{L, Ms, Ns}"


def test_label_support_is_the_support_of_the_evaluated_leaf():
    # every twist of -5 .. 5 for l <= 30; each longer l up to 200 with one of them in turn,
    # since the residue tests cost about l per label (the whole grid takes about 50 s)
    labels = [unit_label(n) for n in range(-50, 51)]
    labels += [e_label(l, m) for l in range(31) for m in range(-5, 6)]
    labels += [e_label(l, l % 11 - 5) for l in range(31, 201)]
    labels += list(GENERATORS.values())
    for lab in labels:
        got = label_support(lab)
        assert got == supp(single(FILT, realize(lab))), lab.text()
        assert is_specialization_closed(got)
    for name, lab in GENERATORS.items():
        assert label_support(lab) == supp(ev(name))
