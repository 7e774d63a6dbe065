"""The support planner `motives.expr_support` against the materialized path:
`spectrum.supp` on the evaluated complex, and the reports `shell.run` built
from `supp_detail` of that complex before it planned on the tree."""

import random

import pytest

from ttfilt import chains, filtmod, motives
from ttfilt.motives import expr_support
from ttfilt.samples import random_expr
from ttfilt.shell import Report, evaluate, parse, print_expr, run
from ttfilt.spectrum import CLASS_GENERATORS, PRIMES, classify, ideal_contains, supp, supp_detail, support_text

# the texts of acceptance tests 1, 2 and 12
_ACCEPTANCE_1 = ["E(0,0)", "E(1,0)", "E(2,0)", "E(3,0)", "E(4,0)", "cone(beta)", "fund0", "T",
                 "cone(beta) * E(0,0)", "fund0 * E(1,0)"]
_ACCEPTANCE_12 = ["1(0)", "1(1)", "1(-1)", "E(0,0)", "E(1,0)", "E(2,0)", "E(1,-1)",
                  "fund0", "cone(beta)", "T", "conerho"]


def _acceptance_12_texts():
    # the pairs and shifts acceptance test 12 draws
    rng = random.Random(20240804)
    texts = []
    for _ in range(500):
        a, b = rng.choice(_ACCEPTANCE_12), rng.choice(_ACCEPTANCE_12)
        texts += [a, b, f"{a} + {b}", f"{a} * {b}", f"shift({a}, {rng.randint(-2, 2)})"]
    return list(dict.fromkeys(texts))


def ev(text):
    return evaluate(parse(text))


@pytest.mark.parametrize("texts", [_ACCEPTANCE_1, list(CLASS_GENERATORS.values()), _acceptance_12_texts()],
                         ids=["acceptance-1", "acceptance-2", "acceptance-12"])
def test_planner_matches_supp_on_the_acceptance_texts(texts):
    for text in texts:
        assert expr_support(parse(text)) == supp(ev(text)), text


def test_planner_matches_supp_on_random_trees():
    rng = random.Random(7)
    motives._leaf_support.cache_clear()
    seen = set()
    for _ in range(300):
        e = random_expr(rng, depth=3, max_dim=16)
        got = expr_support(e)
        assert got == supp(evaluate(e)), print_expr(e)
        seen.add(got)
    assert len(seen) >= 8           # the corpus reaches many of the fourteen classes
    assert motives._leaf_support.cache_info().hits > 0


def _old_support_report(text):
    detail = supp_detail(ev(text))
    points = frozenset(p for p, hit in detail.items() if hit)
    trace = [f"{p}:{'nonzero' if hit else 'zero'}" for p, hit in sorted(detail.items())]
    return Report("support", text, [support_text(points)], trace)


def _old_classify_report(text):
    cls = classify(ev(text))
    return Report("classify", text, [f"support {cls.name}", f"ideal generated by: {cls.generator}"])


def _old_member_report(args):
    verdict = ideal_contains([ev(t) for t in args[1:]], ev(args[0]))
    return Report("member", " ".join(args), [str(verdict).lower()])


def _report_corpus():
    rng = random.Random(11)
    texts = [print_expr(random_expr(rng)) for _ in range(40)] + _ACCEPTANCE_1
    members = [[rng.choice(texts) for _ in range(rng.randint(2, 4))] for _ in range(30)]
    return texts, members


def test_reports_match_the_materialized_reports():
    texts, members = _report_corpus()
    pairs = [(run("support", [t]), _old_support_report(t)) for t in texts]
    pairs += [(run("classify", [t]), _old_classify_report(t)) for t in texts]
    pairs += [(run("member", args), _old_member_report(args)) for args in members]
    assert {new.result[0] for new, _ in pairs if new.command == "member"} == {"true", "false"}
    for new, old in pairs:
        for fmt in ("text", "json-like"):
            assert new.render(fmt, with_trace=True) == old.render(fmt, with_trace=True)


# -- the leaf key and the bounds ---------------------------------------------------


@pytest.mark.parametrize("l", range(7))
def test_label_atom_support_ignores_the_twist(l):
    base = supp(ev(f"E({l},0)"))
    for m in range(-4, 5):
        text = f"E({l},{m})"
        assert supp(ev(text)) == base
        assert expr_support(parse(text)) == base


def test_unit_atom_support_ignores_the_twist():
    for n in range(-5, 6):
        assert supp(ev(f"1({n})")) == frozenset(PRIMES)
        assert expr_support(parse(f"1({n})")) == frozenset(PRIMES)


def test_label_atoms_skip_the_leaf_memo_and_other_leaves_hit_it():
    # label atoms take the closed form of their label; the memo holds catalog atoms and cones
    motives._leaf_support.cache_clear()
    for text in ("E(3,5)", "E(3,-2)", "twist(E(3,0), 4)", "1(7)", "1(-7)", "M(R)", "M(C)", "E(100000,0)"):
        expr_support(parse(text))
    info = motives._leaf_support.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    for text in ("fund0", "fund0", "cone(beta) * E(2,0)", "cone(beta)"):
        expr_support(parse(text))
    info = motives._leaf_support.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_fundl_and_Lpure_supports_are_read_off_the_name():
    # the residue tests on the evaluated leaf stay the oracle
    texts = [f"fundl({l})" for l in range(1, 121)] + [f"Lpure({n})" for n in range(-40, 41)]
    for text in texts:
        assert expr_support(parse(text)) == supp(ev(text)), text
    assert {expr_support(parse(t)) for t in texts} == {frozenset(), frozenset(PRIMES)}


def test_fundl_and_Lpure_skip_the_leaf_memo_and_Lpure_is_not_evaluated(monkeypatch):
    def unevaluated(n):
        raise AssertionError(f"Lpure({n}) was evaluated")

    monkeypatch.setitem(chains.NAMED_PARAM, "Lpure", unevaluated)
    motives._leaf_support.cache_clear()
    for text in ("fundl(1)", "fundl(30000)", "Lpure(5000)", "Lpure(-3) * fundl(2)", "twist(Lpure(0), 4)"):
        expr_support(parse(text))
    info = motives._leaf_support.cache_info()
    assert (info.misses, info.hits) == (0, 0)
    with pytest.raises(ValueError, match="fundamental sequences need positive length"):
        expr_support(parse("Lpure(2) * fundl(0)"))


def test_leaf_cache_is_bounded_like_the_realize_caches():
    assert motives._leaf_support.cache_info().maxsize == filtmod._CACHE_SIZE


@pytest.mark.parametrize("text", ["0 * fundl(-1)", "fundl(-1) * 0", "(fund0 * E(0,0)) * E(-1,3)",
                                  "dual(0) * twist(fundl(0), 2)"])
def test_invalid_leaf_raises_after_an_empty_factor(text):
    with pytest.raises(ValueError):
        ev(text)
    with pytest.raises(ValueError):
        expr_support(parse(text))



def test_real_realization_of_a_large_product_is_planned():
    e = parse("fund0 * fund0 * fund0 * fund0 * fund0 * fund0 * fund0 * fund0")
    assert motives.realization("real", e).support_shadow == frozenset({"L"})
