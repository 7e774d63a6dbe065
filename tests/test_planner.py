"""The two planners on the expression tree against the materialized path.

The support planner `motives.expr_support` against `spectrum.supp` on the
evaluated complex, and the reports `shell.run` built from `supp_detail` of
that complex before it planned on the tree.  The label planner
`motives.expr_labels` against `filtmod.decompose` of the evaluated module,
its labels against `hom_DE`, and `shell.run`'s planned `decompose`,
`tensor`, `dual` and `hom` against the answers of the evaluated path.
"""

import random
import sys
from pathlib import Path

import pytest

from helpers import has_sum_in_two_degrees, random_expr, random_module_tree
from ttfilt import chains, filtmod, motives, shell
from ttfilt.chains import dual_complex, tensor_complex
from ttfilt.filtmod import FormalSum, certify, decompose, dual_labels, e_label, tensor_labels, unit_label
from ttfilt.functors import hom_DE, hom_labels
from ttfilt.motives import expr_labels, expr_support
from ttfilt.shell import ParseError, Report, UsageError, evaluate, parse, print_expr, run
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


# ---------------------------------------------------------------------------
# The label planner
# ---------------------------------------------------------------------------


def _ops(e):
    """The operators of a tree, with "dual2" for a dual under a dual and
    "EE" for a tensor of two E atoms."""
    out = {e.op}
    if e.op == "dual" and "dual" in _ops(e.args[0]):
        out.add("dual2")
    if e.op == "tensor" and all(a.op == "atom" and a.name == "E" for a in e.args):
        out.add("EE")
    return out.union(*map(_ops, e.args))


def _module_corpus(seed, count):
    rng = random.Random(seed)
    return [random_module_tree(rng) for _ in range(count)]


def test_label_planner_matches_decompose_on_random_module_trees():
    planned = unplanned = zero = identity = 0
    ops = set()
    for e in _module_corpus(24, 1200):
        x, got = evaluate(e), expr_labels(e)
        if got is None:
            # only a sum in two degrees fails to plan here
            assert has_sum_in_two_degrees(e), print_expr(e)
            unplanned += 1
            continue
        degree, fs = got
        if x.is_zero():
            assert fs.is_zero(), print_expr(e)
            zero += 1
            continue
        assert x.d_min == x.d_max == degree, print_expr(e)
        a = x.term(degree)
        assert fs == decompose(a).sum, print_expr(e)
        # the planned certificate: the identity exactly when a is the standard model
        dec = certify(a, fs)
        assert dec.sum == fs and dec.validate(), print_expr(e)
        assert dec.iso.matrix.is_identity() == (a == filtmod.realize_sum(fs))
        identity += dec.iso.matrix.is_identity()
        planned += 1
        ops |= _ops(e)
    assert planned >= 1000 and unplanned >= 20 and zero >= 20
    assert 300 <= identity <= planned - 200       # both certificates occur
    assert {"twist", "shift", "dual", "dual2", "sum", "tensor", "EE"} <= ops


def _high_weight_decompose_texts():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import inputs

    return [q.args[0] for seed in (1, 2, 3) for q in inputs.generate("high_weight", seed, 600)
            if q.kind == "decompose"]


def test_label_planner_matches_decompose_on_the_high_weight_texts():
    texts = _high_weight_decompose_texts()
    assert len(texts) == 360
    identity = 0
    for text in texts:
        e = parse(text)
        degree, fs = expr_labels(e)
        a = evaluate(e).term(degree)
        assert fs == decompose(a).sum, text
        dec = certify(a, fs)
        assert dec.sum == fs and dec.validate(), text
        identity += dec.iso.matrix.is_identity()
        assert run("decompose", [text]).result == [fs.text()]
    assert 200 <= identity < 360


def test_hom_labels_matches_hom_DE_on_planned_trees():
    checked = nonzero = 0
    for e, f in zip(_module_corpus(25, 400), _module_corpus(26, 400)):
        x, y = evaluate(e), evaluate(f)
        if x.total_dim() + y.total_dim() > 12 or (p := expr_labels(e)) is None or (q := expr_labels(f)) is None:
            continue
        dims = hom_DE(x, y)
        assert hom_labels(p[0] - q[0], p[1], q[1]) == dims, (print_expr(e), print_expr(f))
        checked += 1
        nonzero += bool(dims)
    assert checked >= 100 and 20 <= nonzero < checked


def test_label_rules_on_single_labels():
    E = e_label
    assert tensor_labels(FormalSum.of(E(2, 1)), FormalSum.of(E(5, -3))) == FormalSum.of(E(2, -2), E(2, 3))
    assert tensor_labels(FormalSum.of(unit_label(4)), FormalSum.of(E(3, 1))) == FormalSum.of(E(3, 5))
    assert tensor_labels(FormalSum.of(unit_label(4)), FormalSum.of(unit_label(-6))) == FormalSum.of(unit_label(-2))
    assert dual_labels(FormalSum.of(E(3, 1), unit_label(2))) == FormalSum.of(unit_label(-2), E(3, -4))
    assert tensor_labels(FormalSum(()), FormalSum.of(E(1, 0))) == FormalSum(())


def test_run_answers_label_trees_as_the_evaluated_path(monkeypatch):
    """tensor and dual of planned trees print the labels that decompose gives
    on the evaluated module, and run no decompose themselves."""
    cases = []
    for e, f in zip(_module_corpus(28, 150), _module_corpus(29, 150)):
        if expr_labels(e) is None or expr_labels(f) is None:
            continue
        x, y = evaluate(e), evaluate(f)
        cases.append(("tensor", [print_expr(e), print_expr(f)], decompose(shell._as_module(tensor_complex(x, y)))))
        cases.append(("dual", [print_expr(e)], decompose(shell._as_module(dual_complex(x)))))
    calls = []
    monkeypatch.setattr(shell, "decompose", lambda a: calls.append(a) or decompose(a))
    for command, args, dec in cases:
        assert run(command, args).result == [dec.sum.text()], (command, args)
    assert len(cases) >= 250 and not calls


@pytest.mark.parametrize("command, args, error, message", [
    # the first argument is read first, as when both are evaluated in order
    ("hom", ["E(-1,0)", "1("], ValueError, "length must be nonnegative"),
    ("hom", ["fundl(0)", "E(-1,0)"], ValueError, "positive length"),
    ("hom", ["fundl(0) + E(1,0)", "1("], ValueError, "positive length"),
    ("hom", ["E(1,0)", "1("], ParseError, "expected an integer"),
    ("hom", ["E(1,0)", "1(0) * E(-2,0)"], ValueError, "length must be nonnegative"),
    ("tensor", ["1(1) + E(-1,0)", "fund0"], ValueError, "length must be nonnegative"),
    ("tensor", ["fund0", "E(-1,0)"], ValueError, "length must be nonnegative"),
    ("dual", ["twist(E(-3,0), 2)"], ValueError, "length must be nonnegative"),
    ("decompose", ["E(1,0) + shift(1(0), 1)"], UsageError, "one degree"),
])
def test_planned_commands_raise_as_the_evaluated_path(command, args, error, message):
    with pytest.raises(error, match=message):
        run(command, args)
