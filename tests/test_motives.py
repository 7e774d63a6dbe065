import pytest

from ttfilt.motives import CATALOG_ATOMS, MotiveExpr, expr_support, motivic_cohomology, realization, to_filtered
from ttfilt.shell import parse
from ttfilt.spectrum import PRIMES, supp
from ttfilt.chains import NAMED_PARAM, cone_rho, fund0, named


def test_generators_translate():
    assert supp(to_filtered(MotiveExpr.extension())) == frozenset({"N", "Ns"})
    assert supp(to_filtered(MotiveExpr.base())) == frozenset(PRIMES)


def test_cone_translations():
    assert to_filtered(MotiveExpr.cone_of("rho")) == cone_rho()
    assert supp(to_filtered(MotiveExpr.cone_of("beta"))) == frozenset({"L", "Ls", "Ms", "Ns"})
    # the cones of the unit and counit of the extension point are invertible
    assert supp(to_filtered(MotiveExpr.cone_of("eta"))) == frozenset(PRIMES)
    assert supp(to_filtered(MotiveExpr.cone_of("eps"))) == frozenset(PRIMES)
    assert to_filtered(MotiveExpr.fundamental()) == fund0()


def test_unknown_cone_rejected():
    with pytest.raises(ValueError):
        MotiveExpr.cone_of("sigma")


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
    e = (MotiveExpr.extension().twist(2) + MotiveExpr.base().shift(1)) * MotiveExpr.cone_of("beta")
    x = to_filtered(e)
    left = to_filtered(MotiveExpr.extension().twist(2) + MotiveExpr.base().shift(1))
    right = to_filtered(MotiveExpr.cone_of("beta"))
    assert supp(x) == supp(left) & supp(right)


def test_tensor_supports_are_homomorphic():
    pairs = [
        (MotiveExpr.extension(), MotiveExpr.cone_of("beta")),
        (MotiveExpr.fundamental(), MotiveExpr.extension()),
        (MotiveExpr.cone_of("rho"), MotiveExpr.cone_of("beta")),
    ]
    for e1, e2 in pairs:
        assert supp(to_filtered(e1 * e2)) == supp(to_filtered(e1)) & supp(to_filtered(e2))
        assert supp(to_filtered(e1 + e2)) == supp(to_filtered(e1)) | supp(to_filtered(e2))


def test_cohomology_window():
    for n in range(-1, 7):
        for m in range(-1, 7):
            assert motivic_cohomology(n, m) == (1 if 0 <= n <= m else 0)


def test_realizations():
    assert realization("etale", MotiveExpr.fundamental()).homology_splits == {}
    bc = realization("base_change", MotiveExpr.extension())
    assert bc.dims == {0: 2} and bc.homology_dims == {0: 2}
    assert bc.support_shadow == frozenset({"N", "Ns"})
    assert realization("real", MotiveExpr.cone_of("beta")).support_shadow == frozenset({"L"})
    assert realization("real", MotiveExpr.base()).support_shadow == frozenset({"L", "M"})
    with pytest.raises(ValueError):
        realization("crystalline", MotiveExpr.base())


def test_prime_generator_dictionary():
    # translated generating sets reproduce the six prime supports
    from ttfilt.spectrum import ATLAS_DATM2
    from ttfilt.chains import direct_sum_complex

    table = {
        "Ls": [MotiveExpr.extension()],
        "Ns": [MotiveExpr.fundamental()],
        "L": [MotiveExpr.cone_of("rho")],
        "N": [MotiveExpr.cone_of("beta")],
        "Ms": [MotiveExpr.extension(), MotiveExpr.fundamental()],
        "M": [MotiveExpr.cone_of("rho"), MotiveExpr.cone_of("beta")],
    }
    for prime, gens in table.items():
        union = frozenset()
        for g in gens:
            union |= supp(to_filtered(g))
        assert union == ATLAS_DATM2.ideal_support(prime)
