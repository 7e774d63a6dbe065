import pytest

from ttfilt.motives import CATALOG_ATOMS, MotiveExpr, expr_support, motivic_cohomology, realization, to_filtered
from ttfilt.shell import ParseError, parse
from ttfilt.spectrum import PRIMES, supp
from ttfilt.chains import NAMED_PARAM, cone_rho, fund0, named


def test_generators_translate():
    assert supp(to_filtered(parse("M(C)"))) == frozenset({"N", "Ns"})
    assert supp(to_filtered(parse("M(R)"))) == frozenset(PRIMES)


def test_cone_translations():
    assert to_filtered(parse("cone(rho)")) == cone_rho()
    assert supp(to_filtered(parse("cone(beta)"))) == frozenset({"L", "Ls", "Ms", "Ns"})
    # the cones of the unit and counit of the extension point are invertible
    assert supp(to_filtered(parse("cone(eta)"))) == frozenset(PRIMES)
    assert supp(to_filtered(parse("cone(eps)"))) == frozenset(PRIMES)
    assert to_filtered(parse("fund0")) == fund0()


def test_unknown_cone_rejected():
    with pytest.raises(ParseError, match="unknown map name 'sigma'"):
        parse("cone(sigma)")
    with pytest.raises(ValueError, match="unknown name: conesigma"):
        to_filtered(MotiveExpr("cone", "sigma"))


@pytest.mark.parametrize("name", ["fundpur", "epstilde", "injres", "nonsense"])
def test_only_the_grammar_atoms_evaluate(name):
    # chains.named also holds plain complexes and chain maps, which are no atoms
    for f in (to_filtered, expr_support):
        with pytest.raises(ValueError, match=f"unknown atom: {name}"):
            f(MotiveExpr("atom", name))


def test_every_catalog_atom_parses_and_evaluates():
    for name in CATALOG_ATOMS:
        e = parse(f"{name}(2)" if name in NAMED_PARAM else name)
        assert e == MotiveExpr("atom", name, e.params)
        assert to_filtered(e) == named(name, *e.params)


def test_translation_structural():
    left = MotiveExpr("sum", args=(MotiveExpr("twist", params=(2,), args=(parse("M(C)"),)),
                                   MotiveExpr("shift", params=(1,), args=(parse("M(R)"),))))
    right = parse("cone(beta)")
    x = to_filtered(MotiveExpr("tensor", args=(left, right)))
    assert supp(x) == supp(to_filtered(left)) & supp(to_filtered(right))


def test_tensor_supports_are_homomorphic():
    pairs = [
        (parse("M(C)"), parse("cone(beta)")),
        (parse("fund0"), parse("M(C)")),
        (parse("cone(rho)"), parse("cone(beta)")),
    ]
    for e1, e2 in pairs:
        assert supp(to_filtered(MotiveExpr("tensor", args=(e1, e2)))) == supp(to_filtered(e1)) & supp(to_filtered(e2))
        assert supp(to_filtered(MotiveExpr("sum", args=(e1, e2)))) == supp(to_filtered(e1)) | supp(to_filtered(e2))


def test_cohomology_window():
    for n in range(-1, 7):
        for m in range(-1, 7):
            assert motivic_cohomology(n, m) == (1 if 0 <= n <= m else 0)


def test_realizations():
    assert realization("etale", parse("fund0")).homology_splits == {}
    bc = realization("base_change", parse("M(C)"))
    assert bc.dims == {0: 2} and bc.homology_dims == {0: 2}
    assert bc.support_shadow == frozenset({"N", "Ns"})
    assert realization("real", parse("cone(beta)")).support_shadow == frozenset({"L"})
    assert realization("real", parse("M(R)")).support_shadow == frozenset({"L", "M"})
    with pytest.raises(ValueError):
        realization("crystalline", parse("M(R)"))


def test_prime_generator_dictionary():
    # translated generating sets reproduce the six prime supports
    from ttfilt.spectrum import ATLAS_DATM2
    from ttfilt.chains import direct_sum_complex

    table = {
        "Ls": [parse("M(C)")],
        "Ns": [parse("fund0")],
        "L": [parse("cone(rho)")],
        "N": [parse("cone(beta)")],
        "Ms": [parse("M(C)"), parse("fund0")],
        "M": [parse("cone(rho)"), parse("cone(beta)")],
    }
    for prime, gens in table.items():
        union = frozenset()
        for g in gens:
            union |= supp(to_filtered(g))
        assert union == ATLAS_DATM2.ideal_support(prime)
