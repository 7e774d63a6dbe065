"""Laws the engine relies on, checked on the engine itself.

`functors.hom_modules` sums a closed form over label pairs.  That is sound
only if hom_DE is unchanged by a common twist, additive in each argument,
moved by shifts as stated, and rigid (hom(x, y) = hom(1(0), dual(x) (x) y)),
and if dual and tensor act on labels by the rules below.  Each law is
checked here on the engine itself: hom_DE on seeded filtered complexes,
some with zero terms, and decompose on realized labels.  The last of these
tests follows the closed form through the same argument, step by step.

The laws after it bear on the trust boundary: complexes are built unchecked
and validated where they enter, so the serialize round trip must return the
value, and supports, labels and hom dimensions must not depend on a twist
or on the basis the value came in.  Whole complexes move to another basis
by `helpers.scrambled_complex`: minimize labels, supports and hom_DE
dims stay, and hom_DE does not see whether an argument was minimized
first, since minimize returns a homotopy equivalent complex.
"""

import random

import pytest

from ttfilt.chains import (
    C2,
    F2,
    FILT,
    ChainMap,
    Complex,
    build_complex,
    cell_is_zero,
    cell_zero,
    cone,
    direct_sum_complex,
    dual_complex,
    minimize,
    shift,
    single,
    tensor_complex,
    twist_complex,
    validate_complex,
)
from ttfilt.gf2 import C2Module
from ttfilt.filtmod import (
    UNIT,
    FiltModule,
    FormalSum,
    IndecLabel,
    decompose,
    dual,
    e_label,
    realize,
    realize_sum,
    tensor,
    unit_label,
)
from ttfilt.functors import _weight_zero_blocks, hom_DE, hom_modules, pwz_complex
from ttfilt.motives import motivic_cohomology
from ttfilt.samples import random_c2_module, random_complex, random_formal_sum
from ttfilt.shell import deserialize, serialize
from ttfilt.spectrum import supp

from helpers import hom_DE_unminimized, scrambled_complex, scrambled_module

UNIT_COMPLEX = single(FILT, realize(unit_label(0)))


def dual_label(lab: IndecLabel) -> IndecLabel:
    """dual(E(l, m)) = E(l, -l-m); a unit is the case l = 0."""
    return IndecLabel(lab.kind, lab.l, -lab.l - lab.m)


def tensor_labels(lam: IndecLabel, mu: IndecLabel) -> FormalSum:
    """1(m) (x) 1(n) = 1(m+n), E(l, m) (x) 1(n) = E(l, m+n), and
    E(l, m) (x) E(l', m') = E(a, m+m') + E(a, m+m'+b), a = min, b = max of l, l'."""
    m = lam.m + mu.m
    if lam.kind == mu.kind == UNIT:
        return FormalSum.of(unit_label(m))
    if lam.kind != mu.kind:
        return FormalSum.of(e_label(lam.l + mu.l, m))
    a, b = sorted((lam.l, mu.l))
    return FormalSum.of(e_label(a, m), e_label(a, m + b))


def labels(max_l: int, twists) -> list[IndecLabel]:
    return [unit_label(m) for m in twists] + [e_label(l, m) for l in range(max_l + 1) for m in twists]


def random_filtered(rng: random.Random):
    """A filtered complex in one to three degrees; a quarter of the terms are zero."""
    term = lambda: FiltModule.zero() if rng.random() < 0.25 else \
        realize_sum(random_formal_sum(rng, max_summands=2, max_l=2))
    x = random_complex(rng, FILT, rng.randint(1, 3), term_gen=term, d_min=rng.randint(-1, 1))
    return twist_complex(x, rng.randint(-2, 2))


def pairs(seed: int, count: int):
    rng = random.Random(seed)
    return rng, [(random_filtered(rng), random_filtered(rng)) for _ in range(count)]


def added(*dims: dict) -> dict:
    out: dict = {}
    for d in dims:
        for n, k in d.items():
            out[n] = out.get(n, 0) + k
    return out


def test_the_seeded_complexes_include_zero_terms_and_zero_complexes():
    _, xs = pairs(7, 60)
    flat = [z for pair in xs for z in pair]
    assert any(z.is_zero() for z in flat)
    assert any(t.is_zero() for z in flat for t in z.terms)
    assert any(z.d_min != z.d_max for z in flat)


def test_hom_DE_is_unchanged_by_a_common_twist():
    rng, xs = pairs(11, 40)
    nonzero = 0
    for x, y in xs:
        r = rng.choice([-4, -3, -1, 1, 2, 5])
        dims = hom_DE(x, y)
        assert hom_DE(twist_complex(x, r), twist_complex(y, r)) == dims
        nonzero += bool(dims)
    assert nonzero >= 10


def test_hom_DE_is_additive_in_each_argument():
    rng, xs = pairs(12, 30)
    for x, y in xs:
        z = random_filtered(rng)
        assert hom_DE(direct_sum_complex(x, z), y) == added(hom_DE(x, y), hom_DE(z, y))
        assert hom_DE(x, direct_sum_complex(y, z)) == added(hom_DE(x, y), hom_DE(x, z))


def test_hom_DE_shift_law():
    # x in degree p and y in degree q: every shift moves by p - q
    rng, xs = pairs(13, 30)
    for x, y in xs:
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        moved = {n + p - q: k for n, k in hom_DE(x, y).items()}
        assert hom_DE(shift(x, p), shift(y, q)) == moved


def test_hom_DE_rigidity_on_complexes():
    _, xs = pairs(14, 30)
    for x, y in xs:
        assert hom_DE(x, y) == hom_DE(UNIT_COMPLEX, tensor_complex(dual_complex(x), y))


def test_hom_DE_rigidity_on_labels():
    labs = labels(3, range(-2, 3))
    for lam in labs:
        a = realize(lam)
        for mu in labs[::3]:
            b = realize(mu)
            assert hom_DE(single(FILT, a), single(FILT, b)) == \
                hom_DE(UNIT_COMPLEX, single(FILT, tensor(dual(a), b))), (lam, mu)


def test_dual_label_rule():
    for lam in labels(8, range(-9, 10)):
        assert decompose(dual(realize(lam))).sum == FormalSum.of(dual_label(lam)), lam


@pytest.mark.parametrize("twist", [-3, 0, 4])
def test_tensor_label_rule(twist):
    labs = labels(8, (0,))
    for lam in labs:
        for mu in labs:
            mu = IndecLabel(mu.kind, mu.l, mu.m + twist)
            assert decompose(tensor(realize(lam), realize(mu))).sum == tensor_labels(lam, mu), (lam, mu)


def test_closed_form_follows_rigidity_and_the_label_rules():
    # the argument of hom_modules step by step: hom(lam, mu) is the sum over the
    # labels nu of dual(lam) (x) mu of hom(1(0), nu), and that one agrees with hom_DE
    from_unit = {}
    for lam in labels(8, range(-3, 4)):
        for mu in labels(8, (-2, 0, 3)):
            parts = []
            for nu in tensor_labels(dual_label(lam), mu).labels:
                if nu not in from_unit:
                    target = single(FILT, realize(nu))
                    from_unit[nu] = hom_DE(UNIT_COMPLEX, target)
                    assert hom_modules(UNIT_COMPLEX, target) == from_unit[nu], nu
                parts.append(from_unit[nu])
            got = hom_modules(single(FILT, realize(lam)), single(FILT, realize(mu)))
            assert got == added(*parts), (lam, mu)


# -- the laws at the trust boundary ------------------------------------------------

KINDS = (FILT, C2, F2)


def random_of_kind(rng: random.Random, kind) -> Complex:
    """A complex of the given kind in one to four degrees, with a quarter of
    the terms drawn zero: inside the complex, or at the ends of its degree
    range, which the complex trims.  Filtered terms come in a scrambled basis."""
    def term():
        if rng.random() < 0.25:
            return cell_zero(kind)
        if kind == FILT:
            return scrambled_module(rng, random_formal_sum(rng, max_summands=2, max_l=2))
        return random_c2_module(rng, 3) if kind == C2 else rng.randint(1, 3)
    x = random_complex(rng, kind, rng.randint(1, 4), term_gen=term, d_min=rng.randint(-2, 1))
    return twist_complex(x, rng.randint(-2, 2)) if kind == FILT else x


def as_filtered(x: Complex) -> Complex:
    """A plain complex in pure weight zero; vector spaces as trivial modules."""
    if x.kind == F2:
        x = build_complex(C2, {n: C2Module.trivial(t) for n, t in zip(x.degrees(), x.terms)},
                          dict(zip(x.degrees()[1:], x.diffs)))
    return x if x.kind == FILT else pwz_complex(x)


@pytest.mark.parametrize("kind", KINDS)
def test_deserialize_inverts_serialize(kind):
    rng = random.Random(21)
    xs = [random_of_kind(rng, kind) for _ in range(40)]
    assert any(x.is_zero() for x in xs)
    assert any(cell_is_zero(kind, t) for x in xs for t in x.terms)
    for x in xs:
        assert deserialize(serialize(x)) == x
        for t in x.terms if kind == FILT else ():
            assert deserialize(serialize(t)) == t


def test_support_is_unchanged_by_a_twist():
    rng = random.Random(22)
    seen = set()
    for kind in KINDS:
        for _ in range(20):
            x = as_filtered(random_of_kind(rng, kind))
            s = supp(x)
            seen.add(s)
            for r in (-3, -1, 2, 5):
                assert supp(twist_complex(x, r)) == s, (kind, r)
    assert len(seen) >= 3


def test_decompose_labels_move_with_a_twist():
    rng = random.Random(23)
    sums = [random_formal_sum(rng, max_summands=5, max_l=4, weight_span=(-3, 3)) for _ in range(60)]
    for a in [FiltModule.zero()] + [scrambled_module(rng, fs) for fs in sums]:
        labs = decompose(a).sum.labels
        for r in (-4, -1, 1, 3):
            moved = FormalSum.of(*(IndecLabel(lab.kind, lab.l, lab.m + r) for lab in labs))
            assert decompose(a.twist(r)).sum == moved, r


def test_decompose_and_hom_DE_do_not_depend_on_the_basis():
    rng = random.Random(24)
    for _ in range(40):
        fa, fb = (random_formal_sum(rng, max_summands=3, max_l=3) for _ in range(2))
        a, b = scrambled_module(rng, fa), scrambled_module(rng, fb)
        assert decompose(a).sum == decompose(realize_sum(fa)).sum == fa
        p = rng.randint(-2, 2)
        assert hom_DE(shift(single(FILT, a), p), single(FILT, b)) == \
            hom_DE(shift(single(FILT, realize_sum(fa)), p), single(FILT, realize_sum(fb)))


def scrambled_pairs(seed: int, count: int):
    """(kind, x, x in another basis) over all three kinds, zero terms inside
    and at the ends of the degree ranges included, and the zero complex."""
    rng = random.Random(seed)
    out = []
    for kind in KINDS:
        for x in [Complex(kind, 0, (), ())] + [random_of_kind(rng, kind) for _ in range(count)]:
            y = scrambled_complex(rng, x)
            validate_complex(y)
            out.append((kind, x, y))
    assert any(cell_is_zero(kind, t) for kind, x, _ in out for t in x.terms)
    return rng, out


def test_minimize_labels_do_not_depend_on_the_basis():
    _, triples = scrambled_pairs(25, 25)
    moved = 0
    for kind, x, y in triples:
        labels = minimize(x).labels
        assert minimize(y).labels == labels, kind
        moved += y != x and any(labs for _, labs in labels)
    assert moved >= 40


def test_supports_do_not_depend_on_the_basis():
    _, triples = scrambled_pairs(26, 15)
    seen = set()
    for kind, x, y in triples:
        s = supp(as_filtered(x))
        assert supp(as_filtered(y)) == s, kind
        seen.add(s)
    assert len(seen) >= 3


def test_hom_DE_does_not_depend_on_the_basis_of_complexes():
    rng, triples = scrambled_pairs(28, 10)
    nonzero = 0
    for kind, x, moved in triples:
        y = random_filtered(rng)
        dims = hom_DE(as_filtered(x), y)
        assert hom_DE(as_filtered(moved), y) == dims, kind
        assert hom_DE(y, as_filtered(moved)) == hom_DE(y, as_filtered(x)), kind
        nonzero += bool(dims)
    assert nonzero >= 10


def test_hom_DE_does_not_see_minimize():
    # minimize on each kind, then placed in weight zero: pwz is additive, so
    # it keeps the homotopy equivalence that minimize returns; tensor squares
    # have units whose elimination changes the differentials around them
    rng, triples = scrambled_pairs(27, 12)
    nonzero = shrunk = 0
    for kind, a, b in triples:
        x, y = tensor_complex(a, b), random_filtered(rng)
        small = as_filtered(minimize(x).complex)
        shrunk += small.total_dim() < x.total_dim()
        dims = hom_DE(as_filtered(x), y)
        assert hom_DE(small, y) == dims, kind
        assert hom_DE(y, small) == hom_DE(y, as_filtered(x)), kind
        assert hom_DE(as_filtered(x), minimize(y).complex) == dims, kind
        nonzero += bool(dims)
    assert nonzero >= 12 and shrunk >= 8, (nonzero, shrunk)


def test_hom_DE_matches_the_hom_complex_of_the_unminimized_arguments():
    # hom_DE runs on the minimal models; the oracle spans the hom complex of x and y
    # themselves.  A contractible cone added in another basis gives minimize units to remove
    rng, corpus = pairs(29, 150)

    def padded(x):
        z = random_filtered(rng)
        return scrambled_complex(rng, direct_sum_complex(x, cone(ChainMap.identity(z))))

    corpus += [(padded(x), y) for x, y in corpus[:25]] + [(x, padded(y)) for x, y in corpus[25:50]]
    nonzero = shrunk = 0
    for x, y in corpus:
        dims = hom_DE(x, y)
        assert dims == hom_DE_unminimized(x, y), (x, y)
        nonzero += bool(dims)
        shrunk += minimize(x).complex.total_dim() < x.total_dim() or minimize(y).complex.total_dim() < y.total_dim()
    assert nonzero >= 130 and shrunk >= 40, (nonzero, shrunk)


def test_hom_DE_matches_the_unminimized_hom_complex_across_a_gap():
    """A zero term of w = dual(x) (x) y inside its range, wider than the
    resolution, leaves a degree of injres (x) w with no pair and no block;
    with two or more resolution terms the layout meets the degrees out of
    order.  Same dimensions as the oracle, in the same order."""
    u = UNIT_COMPLEX
    gap = direct_sum_complex(u, shift(u, 2))
    rng = random.Random(43)
    labels = [unit_label(0), unit_label(1), unit_label(2), e_label(1, 0), e_label(0, 1)]

    def shifted_singles():
        degrees = rng.sample(range(-4, 5), rng.randint(1, 3))
        return direct_sum_complex(*(shift(single(FILT, realize(rng.choice(labels))), d) for d in degrees))

    corpus = [(gap, u), (u, gap)] + [(shifted_singles(), shifted_singles()) for _ in range(40)]
    gaps = unsorted = 0
    for x, y in corpus:
        assert list(hom_DE(x, y).items()) == list(hom_DE_unminimized(x, y).items()), (x, y)
        degrees = list(_weight_zero_blocks(tensor_complex(dual_complex(x), y))[0])
        gaps += bool(degrees) and max(degrees) - min(degrees) + 1 > len(degrees)
        unsorted += degrees != sorted(degrees)
    assert gaps >= 15 and unsorted >= 10, (gaps, unsorted)


def test_motivic_cohomology_matches_the_unminimized_hom_complex():
    for m in range(-4, 5):
        dims = hom_DE_unminimized(UNIT_COMPLEX, twist_complex(UNIT_COMPLEX, m))
        for n in range(-4, 5):
            assert motivic_cohomology(n, m) == dims.get(n, 0) == int(0 <= n <= m), (n, m)
