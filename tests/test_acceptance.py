"""Acceptance suite: one test per exit criterion, each printing a verdict line.

All checks are exact (the engine works over GF(2); no tolerances exist).
Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import random

import pytest

from ttfilt.gf2 import C2Module
from ttfilt.filtmod import (
    FormalSum,
    decompose,
    dual,
    e_label,
    realize,
    tensor,
)
from ttfilt.chains import (
    C2,
    FILT,
    ChainMap,
    cone_beta,
    direct_sum_complex,
    eps_tilde,
    fund0,
    fundpur,
    fundpur_splice,
    invertpur_pow,
    is_nullhomotopic,
    koszul_T,
    minimize,
    shift,
    signature,
    single,
    tensor_complex,
    tensor_map,
    twist_complex,
)
from ttfilt.functors import (
    fgt_complex,
    gr_component_map,
    homology,
    is_zero_DE,
    pwz_complex,
    tfgt,
)
from ttfilt.motives import motivic_cohomology
from ttfilt.samples import random_complex, random_formal_sum
from ttfilt.spectrum import (
    CLASS_GENERATORS,
    PRIMES,
    SymbolicSet,
    atlas,
    compare,
    is_specialization_closed,
    supp,
    verify_prime_generators,
)
from ttfilt.shell import evaluate, parse, print_expr
from ttfilt.cli import main as cli_main

from helpers import chain_map_basis, find_chain_iso, scrambled_module, unit_complex, width


def ev(text):
    return evaluate(parse(text))


def report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'}  acceptance {criterion}")
    assert ok


# 1 ---------------------------------------------------------------------------

def test_01_supports_exact():
    table = {
        "E(0,0)": {"N", "Ns"},
        "E(1,0)": {"Ls", "Ms", "N", "Ns"},
        "E(2,0)": {"L", "Ls", "Ms", "N", "Ns"},
        "E(3,0)": {"L", "Ls", "Ms", "N", "Ns"},
        "E(4,0)": {"L", "Ls", "Ms", "N", "Ns"},
        "cone(beta)": {"L", "Ls", "Ms", "Ns"},
        "fund0": {"L", "Ls"},
        "T": {"Ls", "Ms", "Ns"},
        "cone(beta) * E(0,0)": {"Ns"},
        "fund0 * E(1,0)": {"Ls"},
    }
    ok = all(supp(ev(text)) == frozenset(expected) for text, expected in table.items())
    report("1: canonical supports", ok)


# 2 ---------------------------------------------------------------------------

def test_02_fourteen_classes():
    realized = {}
    for expected, text in CLASS_GENERATORS.items():
        got = supp(ev(text))
        realized[got] = text
        assert got == expected, f"{text} realizes {got}, wanted {expected}"
    report("2: fourteen classes realized bijectively", len(realized) == 14)


# 3 ---------------------------------------------------------------------------

def test_03_motivic_cohomology_table():
    ok = all(motivic_cohomology(n, m) == (1 if 0 <= n <= m else 0)
             for n in range(-1, 7) for m in range(-1, 7))
    report("3: motivic cohomology table", ok)


# 4 ---------------------------------------------------------------------------

def test_04_tensor_and_dual_oracle():
    rng = random.Random(20240801)
    ok = True
    for _ in range(200):
        l = rng.randint(0, 5)
        lp = rng.randint(l, 5)
        i = rng.randint(-3, 3)
        j = rng.randint(-3, 3)
        got = decompose(tensor(realize(e_label(l, i)), realize(e_label(lp, j)))).sum
        want = FormalSum.of(e_label(l, i + j), e_label(l, i + j + lp))
        ok = ok and got == want
        got_dual = decompose(dual(realize(e_label(lp, j)))).sum
        ok = ok and got_dual == FormalSum.of(e_label(lp, -j - lp))
    report("4: tensor rule and duals on 200 random pairs", ok)


# 5 ---------------------------------------------------------------------------

def test_05_krull_schmidt_robustness():
    rng = random.Random(20240802)
    ok = True
    for _ in range(100):
        fs = random_formal_sum(rng, max_summands=6, max_l=3, weight_span=(-2, 2))
        scrambled = scrambled_module(rng, fs)
        dec = decompose(scrambled)
        ok = ok and dec.sum == fs and dec.validate()
    report("5: Krull-Schmidt on 100 scrambled sums with certificates", ok)


# 6 ---------------------------------------------------------------------------

def test_06_invertibility():
    unit = single(C2, C2Module.trivial(1))
    ok = all(minimize(tensor_complex(invertpur_pow(n), invertpur_pow(-n))).complex == unit
             for n in range(-4, 5))
    report("6: invertible powers cancel to the unit", ok)


# 7 ---------------------------------------------------------------------------

def _key_lemma_suite():
    """Nonzero chain maps out of the unit, harvested from hom bases of a
    catalog of targets built from the fundamental complex and its twists."""
    u = unit_complex()
    targets = []
    for m in (1, 2, 3):
        targets.append(twist_complex(fund0(), m))
        targets.append(shift(twist_complex(fund0(), m), -1))
    targets.append(direct_sum_complex(twist_complex(fund0(), 1), twist_complex(fund0(), 2)))
    targets.append(direct_sum_complex(twist_complex(fund0(), 1), twist_complex(unit_complex(), 1)))
    for m in (1, 2, 3):
        targets.append(twist_complex(unit_complex(), m))
    for m in (1, 2):
        targets.append(twist_complex(tensor_complex(fund0(), cone_beta()), m))
        targets.append(twist_complex(cone_beta(), m))
        targets.append(twist_complex(koszul_T(), m))
    targets.append(tensor_complex(twist_complex(fund0(), 1), twist_complex(fund0(), 1)))
    targets.append(direct_sum_complex(twist_complex(fund0(), 1),
                                      shift(twist_complex(fund0(), 2), -1)))
    maps = []
    for tgt in targets:
        maps.extend(f for f in chain_map_basis(u, tgt) if not f.is_zero())
    return maps


def test_07_key_lemma_suite():
    maps = _key_lemma_suite()
    t = koszul_T()
    count = 0
    ok = True
    for f in maps:
        g0 = gr_component_map(f, 0)
        if is_nullhomotopic(g0) is None:
            continue
        count += 1
        square = tensor_map(f, f)
        final = tensor_map(square, ChainMap.identity(t))
        ok = ok and is_nullhomotopic(final) is not None
    ok = ok and count >= 20
    report(f"7: squared maps die on the Koszul cut ({count} instances)", ok)


# 8 ---------------------------------------------------------------------------

def _eps_power_map(l):
    f = eps_tilde()
    for _ in range(l - 1):
        f = tensor_map(f, eps_tilde())
    mf = minimize(f.source)
    tgt = minimize(f.target)
    return ChainMap.of(mf.complex, tgt.complex,
                       {n: tgt.proj.comp(n).mul(f.comp(n)).mul(mf.incl.comp(n))
                        for n in mf.complex.degrees()})


def test_08_nilpotence():
    cases = [fundpur(),
             direct_sum_complex(fundpur(), shift(fundpur(), 1)),
             tensor_complex(fundpur(), fundpur())]
    ok = True
    for m in cases:
        bound = width(m) + 1
        idm = ChainMap.identity(m)
        found = None
        for l in range(1, bound + 1):
            if is_nullhomotopic(tensor_map(_eps_power_map(l), idm)) is not None:
                found = l
                break
        ok = ok and found is not None and found <= bound
    report("8: collapse map is tensor-nilpotent within the width bound", ok)


# 9 ---------------------------------------------------------------------------

def test_09_tfgt_coherence():
    rng = random.Random(20240803)
    ok = True
    for _ in range(50):
        y = random_complex(rng, C2, rng.randint(2, 3))
        got = tfgt(pwz_complex(y))
        want = minimize(y).complex
        ok = ok and signature(got) == signature(want)
        ok = ok and find_chain_iso(got, want) is not None
    for _ in range(200):
        x = random_complex(rng, FILT, rng.randint(2, 3))
        ok = ok and homology(tfgt(x)) == homology(fgt_complex(x))
    for n in range(-3, 4):
        ok = ok and tfgt(ev(f"1({n})")) == invertpur_pow(-n)
    cb = tfgt(cone_beta())
    want_cb = shift(fundpur(), -1)
    ok = ok and signature(cb) == signature(want_cb)
    ok = ok and find_chain_iso(cb, want_cb) is not None
    kc2 = single(C2, C2Module.free(1))
    for l in (1, 2, 3):
        got = tfgt(ev(f"E({l},0)"))
        want = minimize(direct_sum_complex(kc2, shift(fundpur_splice(l - 1), -l))).complex
        ok = ok and signature(got) == signature(want)
        ok = ok and find_chain_iso(got, want) is not None
    report("9: twisted forgetful functor coherence", ok)


# 10 --------------------------------------------------------------------------

def test_10_prime_generators():
    checks = verify_prime_generators()
    ok = len(checks) == 15 and all(c.ok for c in checks)
    report("10: all prime generating sets and Koszul cuts", ok)


# 11 --------------------------------------------------------------------------

def test_11_atlas_topology():
    ok = len(atlas("DATM2").closed_subsets()) == 14
    ok = ok and len(atlas("DTM2").closed_subsets()) == 6
    ok = ok and len(atlas("DAM2").closed_subsets()) == 5
    z = atlas("DATMZ")
    handcrafted = [
        (SymbolicSet(frozenset({"m(3)"})), True),
        (SymbolicSet(frozenset({"m(2)"})), True),
        (SymbolicSet(frozenset({"m(3)", "m(5)"})), True),
        (SymbolicSet(frozenset({"e(3)"})), False),
        (SymbolicSet(frozenset({"e(3)", "m(3)"})), True),
        (SymbolicSet(frozenset({"e(3)", "m(5)"})), False),
        (SymbolicSet(frozenset({"e(7)", "m(7)", "m(11)"})), True),
        (SymbolicSet(frozenset({"Ls"})), True),
        (SymbolicSet(frozenset({"L"})), False),
        (SymbolicSet(frozenset({"L", "Ls"})), True),
        (SymbolicSet(frozenset({"Ms", "Ls", "m(2)"})), True),
        (SymbolicSet(frozenset({"Ms", "Ls"})), False),
        (SymbolicSet(frozenset({"N"})), False),
        (SymbolicSet(frozenset({"e(2)", "m(2)"})), True),
        (SymbolicSet(frozenset({"M", "L", "Ls", "Ms", "e(2)", "m(2)"})), True),
        (SymbolicSet(frozenset(), all_e=True, all_m=True), False),
        (SymbolicSet(frozenset(), all_m=True), False),
        (SymbolicSet(frozenset({"P0"}), all_e=True, all_m=True), True),
        (SymbolicSet(frozenset({"P0", "L", "Ls"}), all_e=True, all_m=True), True),
        (SymbolicSet(frozenset({"P0"})), False),
    ]
    ok = ok and all(z.is_closed(s) == want for s, want in handcrafted)
    expect_dtm = {"Ls": "zero", "Ms": "zero", "Ns": "zero",
                  "L": "conerho", "N": "conebeta", "M": "conebetarho"}
    expect_dam = {"L": "cL", "Ls": "cL", "M": "cM", "Ms": "cM", "N": "cN", "Ns": "cN"}
    for p in PRIMES:
        ok = ok and compare("DATM2->DTM2", p) == expect_dtm[p]
        ok = ok and compare("DATM2->DAM2", p) == expect_dam[p]
    report("11: atlas counts, integral closures, projections", ok)


# 12 --------------------------------------------------------------------------

def test_12_support_laws():
    rng = random.Random(20240804)
    atoms = ["1(0)", "1(1)", "1(-1)", "E(0,0)", "E(1,0)", "E(2,0)", "E(1,-1)",
             "fund0", "cone(beta)", "T", "conerho"]
    cache = {}

    def supp_of(text):
        if text not in cache:
            cache[text] = supp(ev(text))
        return cache[text]

    ok = True
    for _ in range(500):
        a, b = rng.choice(atoms), rng.choice(atoms)
        sa, sb = supp_of(a), supp_of(b)
        s_sum = supp_of(f"{a} + {b}")
        s_tens = supp_of(f"{a} * {b}")
        k = rng.randint(-2, 2)
        s_shift = supp_of(f"shift({a}, {k})")
        ok = ok and s_sum == sa | sb
        ok = ok and s_tens == sa & sb
        ok = ok and s_shift == sa
        ok = ok and all(is_specialization_closed(s) for s in (sa, sb, s_sum, s_tens))
    corpus = ["1(0)", "E(0,0)", "E(1,0)", "fund0", "cone(beta)", "T",
              "fund0 * E(1,0)", "cone(beta) * E(0,0)"]
    for a in corpus:
        for b in corpus:
            x = tensor_complex(ev(a), ev(b))
            ok = ok and is_zero_DE(x) == (supp_of(a) & supp_of(b) == frozenset())
    report("12: support laws on 500 pairs; tensor-vanishing on the corpus", ok)


# 13 --------------------------------------------------------------------------

def test_13_parser_and_verify():
    rng = random.Random(20240805)
    atoms = ["1(0)", "1(-3)", "E(0,0)", "E(2,1)", "M(R)", "M(C)", "fund0",
             "fundl(2)", "T", "conebeta", "conerho", "coneomega", "Lpure(-1)",
             "cone(eta)", "cone(rho)", "0", "1"]
    ok = True
    for _ in range(100):
        a, b, c = (rng.choice(atoms) for _ in range(3))
        text = rng.choice([
            f"{a} + {b} * {c}",
            f"({a} + {b}) * {c}",
            f"twist({a}, {rng.randint(-3, 3)})",
            f"shift(dual({a}), {rng.randint(-2, 2)})",
            f"{a} + {b} + {c}",
        ])
        once = print_expr(parse(text))
        ok = ok and print_expr(parse(once)) == once
    ok = ok and cli_main(["verify"]) == 0
    report("13: expression round-trips and verify exits 0", ok)
