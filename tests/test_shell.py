import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfilt.cli import main
from ttfilt.gf2 import C2Module
from ttfilt.chains import (
    _EPS,
    _ETA,
    C2,
    F2,
    FILT,
    NAMED_PARAM,
    ChainMap,
    build_complex,
    cone,
    cone_beta,
    cone_omega,
    cone_rho,
    direct_sum_complex,
    fund0,
    fund_seq,
    fundpur,
    invertpur_pow,
    koszul_T,
    lpure,
    shift,
    single,
    validate_complex,
)
from ttfilt.functors import res_complex
from ttfilt.filtmod import FiltModule, FormalSum, direct_sum, e_label, realize, unit_label
from ttfilt.motives import CATALOG_ATOMS, GENERATORS, MAPNAMES, MotiveExpr
from ttfilt.shell import (
    ParseError,
    SchemaError,
    UsageError,
    deserialize,
    evaluate,
    parse,
    print_expr,
    run,
    serialize,
)


# -- parser --------------------------------------------------------------------

def test_parse_tensor():
    e = parse("E(1,0) * E(2,0)")
    assert e.op == "tensor"
    assert print_expr(e) == "E(1,0) * E(2,0)"


def test_parse_precedence():
    e = parse("fund0 + T * E(0,0)")
    assert e.op == "sum"
    assert e.args[1].op == "tensor"


def test_parse_parens():
    e = parse("(fund0 + T) * E(0,0)")
    assert e.op == "tensor"
    assert print_expr(e) == "(fund0 + T) * E(0,0)"


def test_parse_signed_integers_and_whitespace():
    e = parse("  twist( 1( -2 ) ,  +3 ) ")
    assert print_expr(e) == "twist(1(-2), 3)"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("E(1,0) * ")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("frobenius")
    with pytest.raises(ParseError):
        parse("cone(tau)")
    with pytest.raises(ParseError):
        parse("E(1,0) extra")


# the digits int() converts from a string: 4300 by default since Python 3.11
# (sys.set_int_max_str_digits), and no limit before it or when set to 0
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# each text, and the exact error: a missing integer is reported where it
# should start, not past the end; superscript digits are no integer; and an
# integer longer than int() converts is reported at its first digit
_INTEGER_ERRORS = [
    ("1(", "expected an integer (at position 2)"),
    ("shift(1,", "expected an integer (at position 8)"),
    ("1(+", "expected an integer (at position 3)"),
    ("E(²,0)", "expected an integer (at position 2)"),
    ("1(-²)", "expected an integer (at position 3)"),
    # decimal digits of other scripts are no integer either: ASCII digits only
    ("1(١)", "expected an integer (at position 2)"),
    ("E(1,-٣)", "expected an integer (at position 5)"),
] + [pytest.param(text, message, marks=pytest.mark.skipif(not _MAX_DIGITS, reason="no digit limit"))
     for text, message in [("1(" + "9" * (_MAX_DIGITS + 1) + ")", "integer too long (at position 2)"),
                           ("twist(1, -" + "7" * (_MAX_DIGITS + 700) + ")", "integer too long (at position 10)")]]


@pytest.mark.parametrize("text,message", _INTEGER_ERRORS)
def test_integer_errors_are_parse_errors_at_the_right_position(text, message, capsys):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert main(["support", text]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integers_up_to_the_digit_limit_parse():
    digits = _MAX_DIGITS or 5000
    assert parse("1(" + "9" * digits + ")").params == (int("9" * digits),)


def _expr_corpus(n=100):
    rng = random.Random(97)
    atoms = ["1(0)", "1(-3)", "E(0,0)", "E(2,1)", "M(R)", "M(C)", "fund0",
             "fundl(2)", "T", "conebeta", "conerho", "coneomega", "Lpure(-1)",
             "cone(eta)", "cone(eps)", "0", "1"]
    out = []
    for _ in range(n):
        a, b, c = (rng.choice(atoms) for _ in range(3))
        form = rng.randrange(6)
        if form == 0:
            out.append(f"{a} + {b} * {c}")
        elif form == 1:
            out.append(f"({a} + {b}) * {c}")
        elif form == 2:
            out.append(f"twist({a}, {rng.randint(-3, 3)})")
        elif form == 3:
            out.append(f"shift({a} * {b}, {rng.randint(-2, 2)})")
        elif form == 4:
            out.append(f"dual({a})")
        else:
            out.append(f"{a} + {b} + {c}")
    return out


def test_print_parse_print_roundtrip():
    for text in _expr_corpus():
        once = print_expr(parse(text))
        assert print_expr(parse(once)) == once


_INTS = st.integers(-5, 5)
_ATOMS = st.one_of(
    st.sampled_from([MotiveExpr("atom", name) for name in
                     ("0", *GENERATORS, *(a for a in CATALOG_ATOMS if a not in NAMED_PARAM))]),
    st.builds(lambda n: MotiveExpr("atom", "1", (n,)), _INTS),
    st.builds(lambda l, m: MotiveExpr("atom", "E", (l, m)), st.integers(0, 4), _INTS),
    st.builds(lambda name, n: MotiveExpr("atom", name, (n,)),
              st.sampled_from([a for a in CATALOG_ATOMS if a in NAMED_PARAM]), _INTS),
    st.builds(lambda name: MotiveExpr("cone", name), st.sampled_from(MAPNAMES)),
)
_TREES = st.recursive(_ATOMS, lambda sub: st.one_of(
    st.builds(lambda op, a, b: MotiveExpr(op, args=(a, b)), st.sampled_from(["sum", "tensor"]), sub, sub),
    st.builds(lambda op, a, n: MotiveExpr(op, params=(n,), args=(a,)),
              st.sampled_from(["twist", "shift"]), sub, _INTS),
    st.builds(lambda a: MotiveExpr("dual", args=(a,)), sub),
), max_leaves=8)


@given(_TREES)
@settings(max_examples=200)
def test_parse_inverts_print_expr(e):
    assert parse(print_expr(e)) == e


def test_print_expr_parenthesizes_right_nesting():
    a, b, c = parse("E(1,0)"), parse("1(2)"), parse("E(0,1)")
    for op, sign in (("sum", "+"), ("tensor", "*")):
        right = MotiveExpr(op, args=(a, MotiveExpr(op, args=(b, c))))
        assert print_expr(right) == f"E(1,0) {sign} (1(2) {sign} E(0,1))"
    left = MotiveExpr("sum", args=(MotiveExpr("sum", args=(a, b)), c))
    assert print_expr(left) == "E(1,0) + 1(2) + E(0,1)"


def test_evaluate_atoms():
    assert evaluate(parse("1")) == single(FILT, realize(unit_label(0)))
    assert evaluate(parse("fund0")) == fund0()
    assert evaluate(parse("0")).is_zero()
    unit, ext = single(FILT, realize(unit_label(0))), single(FILT, realize(e_label(0, 0)))
    eta, eps = ChainMap.of(unit, ext, {0: _ETA}), ChainMap.of(ext, unit, {0: _EPS})
    eta.validate()
    eps.validate()
    expected = {
        "1(-3)": single(FILT, realize(unit_label(-3))),
        "E(2,1)": single(FILT, realize(e_label(2, 1))),
        "M(R)": unit,
        "M(C)": ext,
        "T": koszul_T(),
        "conebeta": cone_beta(),
        "conerho": cone_rho(),
        "coneomega": cone_omega(),
        "fundl(2)": fund_seq(2),
        "Lpure(-1)": lpure(-1),
        "cone(beta)": evaluate(parse("conebeta")),
        "cone(rho)": evaluate(parse("conerho")),
        "cone(eta)": cone(eta),
        "cone(eps)": cone(eps),
    }
    for text, x in expected.items():
        assert evaluate(parse(text)) == x, text


def test_motive_expr_is_the_grammar_tree():
    gen_r, gen_c = MotiveExpr("atom", "M(R)"), MotiveExpr("atom", "M(C)")
    twisted, shifted = MotiveExpr("twist", params=(2,), args=(gen_c,)), MotiveExpr("shift", params=(1,), args=(gen_r,))
    product = MotiveExpr("tensor", args=(MotiveExpr("sum", args=(twisted, shifted)), MotiveExpr("cone", "eta")))
    e = MotiveExpr("sum", args=(product, MotiveExpr("atom", "fund0")))
    assert print_expr(e) == "(twist(M(C), 2) + shift(M(R), 1)) * cone(eta) + fund0"
    assert parse(print_expr(e)) == e


# -- serialization ---------------------------------------------------------------

def test_serialize_roundtrip_module():
    a = realize(e_label(2, 0))
    assert deserialize(serialize(a)) == a


def test_serialize_roundtrip_width_zero_rows():
    # the zero module, and a complex whose 2x0 differential is written as two empty rows
    z = FiltModule.zero()
    x = direct_sum_complex(single(FILT, realize(e_label(1, 0))), shift(single(FILT, realize(unit_label(0))), 2))
    assert "mat |" in serialize(x)
    for value in (z, x):
        assert deserialize(serialize(value)) == value


def test_serialize_roundtrip_one_row_of_width_zero():
    # the 1x0 differential out of the zero degree-1 term is written as `mat ` with an empty value
    one = single(FILT, realize(unit_label(0)))
    x = direct_sum_complex(one, shift(one, 2))
    assert "mat \n" in serialize(x)
    assert deserialize(serialize(x)) == x
    assert serialize(deserialize(serialize(x))) == serialize(x)


def _zero_inside(kind, a, b):
    """A complex of the given kind with terms a, 0, b in degrees 0, 1, 2."""
    x = build_complex(kind, {0: a, 2: b}, {})
    validate_complex(x)
    return x


def test_serialize_roundtrip_complex():
    xs = [evaluate(parse(text)) for text in ("fund0", "T", "E(1,0) * E(2,0)", "conebeta + E(0,0)")]
    xs += [fundpur(), invertpur_pow(-2), res_complex(fundpur()),
           _zero_inside(C2, C2Module.free(1), C2Module.trivial(1)), _zero_inside(F2, 2, 1)]
    for x in xs:
        blob = serialize(x)
        assert deserialize(blob) == x
        assert serialize(deserialize(blob)) == blob


def test_serialize_roundtrip_formalsum_and_support():
    fs = FormalSum.of(e_label(2, 0), unit_label(-1), e_label(2, 0))
    assert deserialize(serialize(fs)) == fs
    s = frozenset({"L", "Ls"})
    assert deserialize(serialize(s)) == s


def test_deserialize_rejects_a_negative_length():
    with pytest.raises(SchemaError) as err:
        deserialize("ttfilt-io 1\ntype formalsum\nlabels E(1,0)|E(-2,3)\n")
    assert str(err.value) == "bad label 'E(-2,3)'"


@pytest.mark.parametrize("label", ["1(1_0)", "E( 1,+0)", "1(١)", "E(1,٠)", "1( 1)", "1(1 )", "E(1,--1)",
                                   "1()", "1(+)", "E(1)", "1(1,2)", "E(1,2,3)"])
def test_deserialize_reads_labels_as_serialize_writes_them(label):
    # an optional ASCII sign and ASCII digits, as the grammar scans them:
    # int() alone would take '_', spaces and the digits of other scripts
    with pytest.raises(SchemaError) as err:
        deserialize(f"ttfilt-io 1\ntype formalsum\nlabels E(1,0)|{label}\n")
    assert str(err.value) == f"bad label '{label}'"


def test_deserialize_reads_signed_ascii_labels():
    text = "ttfilt-io 1\ntype formalsum\nlabels 1(+10)|E(2,-3)|1(-0)\n"
    assert deserialize(text) == FormalSum.of(unit_label(10), e_label(2, -3), unit_label(0))


def test_deserialize_rejects_unstable_layer():
    # 2-dim module with swap involution and a non-invariant line as a layer
    blob = "\n".join([
        "ttfilt-io 1",
        "type filtmodule",
        "dim 2",
        "sigma 01|10",
        "wmin 0",
        "wmax 1",
        "layer 10|01",
        "layer 10",
        "layer -",
        "",
    ])
    with pytest.raises(SchemaError):
        deserialize(blob)


def test_deserialize_rejects_bad_sigma():
    blob = "\n".join([
        "ttfilt-io 1", "type filtmodule", "dim 2", "sigma 01|01",
        "wmin 0", "wmax 0", "layer 10|01", "layer -", "",
    ])
    with pytest.raises(SchemaError):
        deserialize(blob)


def _fund0_blob() -> str:
    return serialize(evaluate(parse("fund0")))


@pytest.mark.parametrize("blob, key, text", [
    pytest.param(lambda: serialize(realize(e_label(1, 0))), "dim", "0_2", id="dim-underscore"),
    pytest.param(lambda: serialize(realize(e_label(1, 0))), "dim", "\u0662", id="dim-arabic-indic-digit"),
    pytest.param(lambda: serialize(realize(e_label(1, 0))), "wmin", " 0", id="wmin-two-spaces"),
    pytest.param(lambda: serialize(realize(e_label(1, 0))), "wmax", "\u0661", id="wmax-arabic-indic-digit"),
    pytest.param(_fund0_blob, "dmin", "0_0", id="dmin-underscore"),
    pytest.param(_fund0_blob, "nterms", "\uff13", id="nterms-fullwidth-digit"),
    pytest.param(_fund0_blob, "begin diff", " 1", id="diff-degree-two-spaces"),
    pytest.param(_fund0_blob, "rows", "+0_1", id="rows-sign-and-underscore"),
    pytest.param(_fund0_blob, "cols", "\u0662", id="cols-arabic-indic-digit"),
])
def test_deserialize_reads_integer_fields_as_serialize_writes_them(blob, key, text):
    # the one spelling _label_parse takes: int() alone reads each of these as the written value
    blob = blob()
    written = f"\n{key} {int(text)}\n"
    assert written in blob
    with pytest.raises(SchemaError) as err:
        deserialize(blob.replace(written, f"\n{key} {text}\n", 1))
    assert str(err.value) == f"field '{key}': expected an integer, got '{text}'"


@pytest.mark.parametrize("blob", [
    pytest.param(lambda: _fund0_blob().replace("dmin 0", "dmin 7"), id="dmin-off-the-term-degrees"),
    pytest.param(lambda: _fund0_blob().replace("nterms 3", "nterms 2"), id="more-term-blocks-than-nterms"),
    pytest.param(lambda: _fund0_blob() + "end diff\n", id="trailing-text-after-complex"),
    pytest.param(lambda: serialize(FormalSum.of(unit_label(0))) + "labels -\n", id="trailing-text-after-labels"),
    pytest.param(lambda: _fund0_blob().replace("dmin 0", "dmin zero"), id="non-integer-field"),
    pytest.param(lambda: _fund0_blob().replace("wmax 0", "wmax -2", 1), id="weight-range-below-empty"),
    pytest.param(lambda: _fund0_blob() + "begin diff 1\nrows 1\ncols 2\nmat 00\nend diff\n",
                 id="duplicate-diff-block"),
    # rows of the right width; read reversed by int(_, 2), the last three would give the original row
    pytest.param(lambda: _fund0_blob().replace("mat 11", "mat 12"), id="digit-2-in-row"),
    pytest.param(lambda: _fund0_blob().replace("layer 10|01", "layer 1 |01"), id="space-in-row"),
    pytest.param(lambda: serialize(direct_sum(realize(e_label(1, 0)), realize(unit_label(0))))
                 .replace("layer 100|", "layer 1_0|"), id="underscore-in-row"),
    pytest.param(lambda: _fund0_blob().replace("sigma 01|10", "sigma 01|1+"), id="sign-in-row"),
    pytest.param(lambda: serialize(fundpur()).replace("sigma 01|10", "sigma 11|10", 1), id="c2-sigma-not-involution"),
])
def test_deserialize_rejects_malformed_text(blob):
    with pytest.raises(SchemaError):
        deserialize(blob())


def _d1_one_by_one(text: str) -> str:
    return text.replace("begin diff 1\nrows 1\ncols 2\nmat 11", "begin diff 1\nrows 1\ncols 1\nmat 1")


@pytest.mark.parametrize("blob, message", [
    pytest.param(lambda: _fund0_blob().replace("mat 11", "mat 10"),
                 "differential in degree 1 is not a morphism", id="not-equivariant"),
    pytest.param(lambda: _fund0_blob().replace("mat 1|1", "mat 1|0"), "d.d is nonzero", id="filt-dd-nonzero"),
    pytest.param(lambda: _d1_one_by_one(_fund0_blob()), "differential shape mismatch", id="shape-mismatch"),
    pytest.param(lambda: serialize(build_complex(C2, dict.fromkeys(range(3), C2Module.trivial(1)), {}))
                 .replace("mat 0", "mat 1"), "d.d is nonzero", id="c2-identities"),
    # 1(1) -> 1(0) by the identity: equivariant, but it does not keep the weight-1 layer
    pytest.param(lambda: serialize(direct_sum_complex(single(FILT, realize(unit_label(0))),
                                                      single(FILT, realize(unit_label(1)), 1)))
                 .replace("mat 0", "mat 1"),
                 "differential in degree 1 is not a morphism", id="leaves-weight-layer"),
])
def test_deserialize_rejects_invalid_complexes_with_their_message(blob, message):
    with pytest.raises(SchemaError) as err:
        deserialize(blob())
    assert str(err.value) == message


@pytest.mark.parametrize("sigma, message", [("01", "sigma must be square"), ("11|10", "sigma is not an involution")])
@pytest.mark.parametrize("blob", [
    pytest.param(lambda: serialize(fundpur()), id="c2-complex-term"),
    pytest.param(_fund0_blob, id="filt-complex-term"),
    pytest.param(lambda: serialize(realize(e_label(1, 0))), id="filtmodule"),
])
def test_deserialize_reads_the_sigma_of_every_term_alike(blob, sigma, message):
    """One reader checks sigma for C2 and filtered terms and for a filtered
    module value: too few rows, then not an involution."""
    with pytest.raises(SchemaError) as err:
        deserialize(blob().replace("sigma 01|10", f"sigma {sigma}", 1))
    assert str(err.value) == message


def test_deserialize_rejects_bad_header():
    with pytest.raises(SchemaError):
        deserialize("ttfilt-io 99\ntype support\npoints -\n")


# -- command engine ----------------------------------------------------------------

def test_run_support():
    rep = run("support", ["fund0"])
    assert rep.result == ["{L, Ls}"]


def test_run_support_trace():
    rep = run("support", ["cone(beta) * E(0,0)"])
    assert rep.result == ["{Ns}"]
    assert any(t.startswith("Ns:nonzero") for t in rep.trace)


def test_run_decompose():
    rep = run("decompose", ["E(1,0) * E(2,0)"])
    assert rep.result == ["E(1,0) + E(1,2)"]


def test_run_classify():
    rep = run("classify", ["fund0 + T"])
    assert rep.result[0] == "support {L, Ls, Ms, Ns}"


def test_run_member():
    assert run("member", ["E(0,0)", "E(1,0)"]).result == ["true"]
    assert run("member", ["fund0", "E(0,0)"]).result == ["false"]


def test_run_hom():
    rep = run("hom", ["1", "1(3)"])
    assert rep.result == ["n=0 dim=1", "n=1 dim=1", "n=2 dim=1", "n=3 dim=1"]


def test_run_atlas():
    assert run("atlas", ["DATM2", "--closed-count"]).result == ["14"]
    assert run("atlas", ["DTM2", "--closed-count"]).result == ["6"]
    assert run("atlas", ["DAM2", "--closed-count"]).result == ["5"]
    assert run("atlas", ["DATM2", "--compare", "DATM2->DAM2", "Ms"]).result == ["cM"]


def test_run_tate():
    assert run("tate", ["1"]).result == ["1"]
    assert run("tate", ["E(0,0)"]).result == ["0"]


def test_run_minimize_text():
    rep = run("minimize", ["coneomega"])
    assert rep.result[0].startswith("complex{ d1: E(1,0), d0: E(0,1)")


def test_run_usage_errors():
    with pytest.raises(UsageError):
        run("support", [])
    with pytest.raises(UsageError):
        run("frobnicate", ["x"])
    with pytest.raises(UsageError):
        run("member", ["fund0"])


def test_run_deterministic():
    a = run("support", ["T + fund0"]).render("json-like", with_trace=True)
    b = run("support", ["T + fund0"]).render("json-like", with_trace=True)
    assert a == b


# -- CLI ------------------------------------------------------------------------

def test_cli_exit_codes(capsys):
    assert main(["support", "fund0"]) == 0
    out = capsys.readouterr().out
    assert "{L, Ls}" in out
    assert main(["support", "fund0 +"]) == 1
    assert main(["atlas", "NOPE"]) == 1


@pytest.mark.parametrize("argv", [["support", "E(-1,0)"], ["decompose", "E(-1,0)"], ["hom", "1", "E(-1,0)"]])
def test_cli_rejects_a_negative_length(argv, capsys):
    # the grammar reader checks E(l, m) where its text becomes a label
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: length must be nonnegative\n")


@pytest.mark.parametrize("point", ["e(02)", "e(+3)", "m( 5)"])
def test_cli_atlas_takes_one_spelling_per_point(point, capsys):
    """e(2) is N, whose closure is {e(2), m(2)}: a prime index written any
    other way than str(l) names no point."""
    assert main(["atlas", "DATMZ", "--closure", point]) == 1
    assert capsys.readouterr().err == f"error: bad point name: {point}\n"
    assert main(["atlas", "DATMZ", "--closure", "e(2)"]) == 0
    assert capsys.readouterr().out == "{e(2), m(2)}\n"


@pytest.mark.parametrize("text, support", [
    ("T", "{Ls, Ms, Ns}"), ("conebeta", "{L, Ls, Ms, Ns}"), ("coneomega", "{Ls, Ms, Ns}"),
])
def test_cli_support_of_the_catalog_cones(text, support, capsys):
    assert main(["support", text]) == 0
    assert capsys.readouterr().out == support + "\n"


def test_deserialize_checks_a_layer_line_inside_a_run():
    # E(4,0) repeats its fixed line on weights 1..4: a line changed mid-run is read and checked
    text = serialize(realize(e_label(4, 0)))
    fixed, full = "layer 11", "layer 10|01"
    assert text.count(fixed + "\n") == 4 and deserialize(text) == realize(e_label(4, 0))
    lines = text.split("\n")
    lines[lines.index(fixed) + 2] = full
    with pytest.raises(SchemaError, match="layers must decrease"):
        deserialize("\n".join(lines))


def test_cli_json_like(capsys):
    assert main(["--format", "json-like", "classify", "T"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("schema ttfilt-report/1")


def test_cli_verify(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
