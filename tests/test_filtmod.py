import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfilt.chains import Complex, tensor_complex
from ttfilt.gf2 import BitMatrix, C2Module, Subspace, quotient_module
from ttfilt.filtmod import (
    Decomposition,
    FiltModule,
    FiltMorphism,
    FormalSum,
    IndecLabel,
    MathEngineError,
    _split_exact_equivariant,
    beta_map,
    decompose,
    direct_sum,
    dual,
    e_label,
    fgt,
    gr,
    is_admissible,
    is_projective,
    pwz_module,
    realize,
    realize_sum,
    tensor,
    unit_label,
)
from ttfilt.samples import random_c2_module, random_formal_sum, random_invertible
from ttfilt.shell import deserialize

from helpers import (
    brute_hom_count,
    check_values,
    contains,
    decompose_by_meets,
    decompose_by_vectors,
    direct_sum_by_weights,
    dual_by_weights,
    hom_basis,
    is_effective,
    post_init_by_vectors,
    is_valid_by_vectors,
    is_valid_by_weights,
    random_graded_sequence,
    realize_by_twist,
    realize_sum_by_direct_sum,
    scrambled_module,
    split_exact_by_solve,
    tensor_by_weights,
    validate_two_sided,
    weight_ge,
    weight_ge_by_weights,
)

ETA = BitMatrix.from_rows([[1], [1]])
EPS = BitMatrix.from_rows([[1, 1]])


# -- realize -----------------------------------------------------------------

def test_realize_unit():
    u = realize(unit_label(0))
    assert u.dim == 1 and (u.w_min, u.w_max) == (0, 0)


def test_realize_pure_regular():
    e = realize(e_label(0, 3))
    assert e.dim == 2 and (e.w_min, e.w_max) == (3, 3)
    assert e.layer(3).is_full() and e.layer(4).is_zero()


def test_realize_is_the_model_built_from_the_module():
    # realize is the one-label standard model; bit for bit the model it built from the module
    for l in range(61):
        for m in range(-60, 61):
            assert realize(e_label(l, m)) == realize_by_twist(e_label(l, m)), (l, m)
    for n in range(-60, 61):
        assert realize(unit_label(n)) == realize_by_twist(unit_label(n)), n


def test_a_realize_miss_leaves_the_realize_sum_cache_alone():
    # each cache holds its own models, so a one-label model is not stored twice
    label = e_label(7, 9_876_543)
    before = realize_sum.cache_info()
    model = realize(label)
    assert realize_sum.cache_info() == before
    assert model == realize_sum(FormalSum((label,)))


@pytest.mark.parametrize("fields, message", [
    (("E", -1, 0), "length must be nonnegative"),
    (("1", 2, 0), "unit labels carry no length"),
    (("X", 0, 0), "unknown label kind"),
])
def test_check_values_rejects_a_malformed_label(fields, message):
    # only a label written by hand can be malformed: the readers of text check theirs
    with pytest.raises(ValueError, match=message):
        check_values([realize(unit_label(0)), FormalSum((IndecLabel(*fields),))])


def test_realize_filtered_regular():
    e = realize(e_label(2, 0))
    assert e.layer(0).is_full()
    assert e.layer(1).dim == 1 and e.layer(2).dim == 1
    assert e.layer(3).is_zero()
    # the middle layers are the fixed line
    assert contains(e.layer(1), 0b11)


# -- hom spaces ---------------------------------------------------------------

def test_hom_dims_from_construction():
    assert len(hom_basis(realize(e_label(1, 0)), realize(e_label(1, 0)))) == 2
    assert len(hom_basis(realize(unit_label(0)), realize(unit_label(1)))) == 1
    assert len(hom_basis(realize(unit_label(1)), realize(unit_label(0)))) == 0


@pytest.mark.parametrize("a,b", [
    (unit_label(0), e_label(1, 0)),
    (e_label(1, 0), unit_label(0)),
    (e_label(2, -1), e_label(1, 0)),
    (e_label(0, 0), e_label(2, 0)),
    (unit_label(2), e_label(2, 0)),
])
def test_hom_dims_against_brute_force(a, b):
    src, tgt = realize(a), realize(b)
    assert len(hom_basis(src, tgt)) == brute_hom_count(src, tgt)


def test_hom_basis_members_are_valid():
    for f in hom_basis(realize(e_label(2, 0)), realize(e_label(1, 1))):
        assert f.is_valid()


# -- tensor, dual, twist ------------------------------------------------------

def test_tensor_units():
    t = tensor(realize(unit_label(2)), realize(unit_label(-1)))
    assert decompose(t).sum == FormalSum.of(unit_label(1))


def test_tensor_regulars():
    t = tensor(realize(e_label(1, 0)), realize(e_label(2, 0)))
    assert decompose(t).sum == FormalSum.of(e_label(1, 0), e_label(1, 2))


def test_tensor_galois():
    t = tensor(realize(e_label(0, 0)), realize(e_label(0, 0)))
    assert decompose(t).sum == FormalSum.of(e_label(0, 0), e_label(0, 0))


@given(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=30, deadline=None)
def test_tensor_rule(l, lp, i, j):
    if l > lp:
        l, lp = lp, l
    t = tensor(realize(e_label(l, i)), realize(e_label(lp, j)))
    assert decompose(t).sum == FormalSum.of(e_label(l, i + j), e_label(l, i + j + lp))


def test_dual_formulas():
    assert decompose(dual(realize(unit_label(3)))).sum == FormalSum.of(unit_label(-3))
    assert decompose(dual(realize(e_label(3, 1)))).sum == FormalSum.of(e_label(3, -4))
    a = realize(e_label(2, -1))
    assert {w: p.dim for w, p in gr(dual(a))} == {-w: p.dim for w, p in gr(a)}


def test_double_dual():
    rng = random.Random(5)
    for _ in range(10):
        fs = random_formal_sum(rng, max_summands=3)
        a = scrambled_module(rng, fs)
        assert decompose(dual(dual(a))).sum == fs


def test_hom_duality():
    rng = random.Random(11)
    for _ in range(8):
        a = scrambled_module(rng, random_formal_sum(rng, max_summands=2))
        b = scrambled_module(rng, random_formal_sum(rng, max_summands=2))
        assert len(hom_basis(a, b)) == len(hom_basis(dual(b), dual(a)))


def test_twist_inverse_bit_identical():
    a = scrambled_module(random.Random(3), random_formal_sum(random.Random(3)))
    assert a.twist(4).twist(-4) == a


def test_beta_map_is_the_hom_generator():
    u = realize(unit_label(0))
    f = beta_map(u)
    assert f.is_valid()
    basis = hom_basis(u, u.twist(1))
    assert len(basis) == 1 and basis[0].matrix == f.matrix


# -- weight functors ----------------------------------------------------------

def test_gr_of_filtered_regular():
    assert {w: p.dim for w, p in gr(realize(e_label(1, 0)))} == {0: 1, 1: 1}
    pieces = dict(gr(realize(e_label(0, 2))))
    assert pieces[2].module_split() == (0, 1)


def test_gr_multiplicative():
    rng = random.Random(19)
    for _ in range(10):
        a = scrambled_module(rng, random_formal_sum(rng, max_summands=2))
        b = scrambled_module(rng, random_formal_sum(rng, max_summands=2))
        da, db = {w: p.dim for w, p in gr(a)}, {w: p.dim for w, p in gr(b)}
        dt = {w: p.dim for w, p in gr(tensor(a, b))}
        conv = {}
        for p, x in da.items():
            for q, y in db.items():
                conv[p + q] = conv.get(p + q, 0) + x * y
        assert dt == {k: v for k, v in conv.items() if v}


def test_fgt_is_tensor():
    a = realize(e_label(2, 0))
    b = realize(e_label(1, -1))
    assert fgt(tensor(a, b)).dim == fgt(a).dim * fgt(b).dim


def test_weight_part_values():
    for m, expected in [(1, (0, 1)), (0, (0, 1)), (-1, (1, 0)), (-2, (0, 0))]:
        mod = weight_ge(realize(e_label(1, m)), 0).module
        assert mod.module_split() == expected


def test_weight_ge():
    a = realize(e_label(2, 0))
    top = weight_ge(a, 1)
    # the fixed line survives and sits (tightly) in top weight 2
    assert decompose(top).sum == FormalSum.of(unit_label(2))
    assert weight_ge(a, -5) == a
    assert weight_ge(a, 3).is_zero()


def test_effective():
    assert is_effective(realize(e_label(2, 0)))
    assert is_effective(realize(unit_label(1)))
    assert not is_effective(realize(unit_label(-1)))


# -- decomposition ------------------------------------------------------------

def test_decompose_realize_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        fs = random_formal_sum(rng)
        assert decompose(realize_sum(fs)).sum == fs


def _corpus_sum(rng: random.Random) -> FormalSum:
    """Up to 12 summands, l <= 4, m in a random subset of -3..3 (so weights
    have gaps), with labels drawn again from a smaller pool (so they repeat)."""
    weights = rng.sample(range(-3, 4), rng.randint(1, 7))
    pool = [unit_label(rng.choice(weights)) if rng.random() < 0.4
            else e_label(rng.randint(0, 4), rng.choice(weights))
            for _ in range(rng.randint(1, 6))]
    return FormalSum.of(*(rng.choice(pool) for _ in range(rng.randint(1, 12))))


def test_decompose_scrambled():
    rng = random.Random(29)
    sums = [FormalSum.of(e_label(2, 0), unit_label(1))] * 5
    sums += [_corpus_sum(rng) for _ in range(200)]
    for fs in sums:
        dec = decompose(scrambled_module(rng, fs))
        assert dec.sum == fs
        assert dec.validate()


def test_decompose_wide_weight_span():
    # E(l,m) * E(l',m') = E(a, m+m') + E(a, m+m'+b) with a = min(l,l'), b = max(l,l')
    dec = decompose(tensor(realize(e_label(40, 0)), realize(e_label(25, 3))))
    assert dec.sum == FormalSum.of(e_label(25, 3), e_label(25, 43))
    assert dec.validate()


def test_decompose_additive():
    rng = random.Random(31)
    for _ in range(6):
        f1, f2 = random_formal_sum(rng, 3), random_formal_sum(rng, 3)
        a = direct_sum(scrambled_module(rng, f1), scrambled_module(rng, f2))
        assert decompose(a).sum == f1 + f2


def test_direct_sum_of_many_is_the_pairwise_fold():
    rng = random.Random(37)
    for _ in range(25):
        sums = [_corpus_sum(rng) if rng.random() < 0.8 else FormalSum(())
                for _ in range(rng.randint(0, 4))]
        mods = [scrambled_module(rng, fs) for fs in sums]
        folded = FiltModule.zero()
        for a in mods:
            folded = direct_sum(folded, a)
        whole = direct_sum(*mods)
        assert whole == folded
        assert decompose(whole).sum == sum(sums, FormalSum(()))


def test_decompose_zero():
    dec = decompose(FiltModule.zero())
    assert dec.sum.is_zero()


def _same_as_closed_form(a: FiltModule) -> FormalSum:
    dec, oracle = decompose(a), decompose_by_meets(a)
    assert dec.sum == oracle.sum
    assert dec.validate() and oracle.validate()
    return dec.sum


def test_decompose_matches_the_closed_form_on_scrambled_modules():
    rng = random.Random(41)
    for _ in range(300):
        fs = random_formal_sum(rng, max_summands=10, max_l=6, weight_span=(-5, 5))
        assert _same_as_closed_form(scrambled_module(rng, fs)) == fs


def test_decompose_matches_the_closed_form_on_tensors_and_duals():
    rng = random.Random(43)
    for _ in range(40):
        a, b = (realize_sum(random_formal_sum(rng, max_summands=3, max_l=4)) for _ in range(2))
        for m in (tensor(a, b), dual(a), tensor(dual(a), b), dual(tensor(a, b))):
            _same_as_closed_form(m)


def _same_as_by_vectors(a: FiltModule) -> None:
    """decompose against the per-vector oracle, bit for bit: the sum and both certificate matrices."""
    dec, oracle = decompose(a), decompose_by_vectors(a)
    assert (dec.sum, dec.iso.matrix, dec.inv.matrix) == (oracle.sum, oracle.iso.matrix, oracle.inv.matrix)


def test_decompose_matches_the_per_vector_oracle_on_scrambled_sums():
    rng = random.Random(45)
    for _ in range(60):
        a = scrambled_module(rng, random_formal_sum(rng, max_summands=12, max_l=6, weight_span=(-5, 5)))
        for m in (a, dual(a), a.twist(rng.randint(-3, 3))):
            _same_as_by_vectors(m)
    for _ in range(20):
        a, b = (scrambled_module(rng, random_formal_sum(rng, max_summands=3, max_l=4)) for _ in range(2))
        _same_as_by_vectors(tensor(a, b))


def _structure_modules(seed: int, count: int) -> list[FiltModule]:
    """The modules that the first count structure queries of perfbench decompose: each
    decompose text, and every term of the complexes that minimize and hom_DE minimize."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import inputs

    out = {}  # as a dict, without repeats and in query order
    for q in inputs.generate("structure", seed, count):
        xs = [deserialize(text) for text in q.args]
        if q.kind == "minimize" and len(xs) == 2:
            xs = [tensor_complex(*xs)]
        out.update((t, None) for x in xs for t in ((x.term(n) for n in x.degrees()) if isinstance(x, Complex) else (x,)))
    return list(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decompose_matches_the_per_vector_oracle_on_the_structure_inputs(seed):
    # the first 100 queries hold each slot of the workload's cycle ten times
    mods = _structure_modules(seed, 100)
    assert len(mods) > 150 and max(a.dim for a in mods) >= 40
    for a in mods:
        _same_as_by_vectors(a)


def test_decompose_reports_a_norm_that_is_not_triangular():
    # sigma of order 3, so N.N != 0: the public constructors refuse it, so it is built unchecked
    mod = C2Module(2, BitMatrix.from_rows([[0, 1], [1, 1]]))
    a = FiltModule._of(mod, [(1, Subspace.zero(2))])
    assert (a.weights, a.layers) == ((0, 1), (Subspace.full(2), Subspace.zero(2)))
    with pytest.raises(MathEngineError, match="not strictly triangular"):
        decompose(a)


# -- storage at the drops, against the per-weight oracles ---------------------

def test_realize_stores_three_layers_for_any_length():
    for l in (1, 2, 40, 10**6):
        e = realize(e_label(l, -3))
        assert e.weights == (-3, -2, l - 2) and len(e.layers) == 3
        assert (e.w_min, e.w_max) == (-3, l - 3)


def test_pair_constructor_merges_equal_neighbours_and_tightens():
    e = realize(e_label(3, 0))
    full, fixed, zero = e.layers
    assert FiltModule.of(e.module, [(-4, full), (-2, full), (1, fixed), (2, fixed), (4, zero)]) == e
    assert FiltModule.of(e.module, [(1, fixed), (4, zero), (6, zero)]) == e
    assert FiltModule.of(e.module, [*enumerate([fixed] * 3, 1), (4, zero)]) == e


@pytest.mark.parametrize("weights,layers,message", [
    ((0, 1, 2, 3), (0, 1, 1, 2), "layers must decrease"),
    ((0, 2, 3), (0, 1, 2), "not tight at bottom"),
    ((0, 2, 1), (0, 1, 2), "weights must increase"),
    ((0, 1), (0, 1, 2), "layer count mismatch"),
])
def test_post_init_rejects_storage_off_the_drops(weights, layers, message):
    e = realize(e_label(3, 0))
    with pytest.raises(ValueError, match=message):
        FiltModule(e.module, weights, tuple(e.layers[i] for i in layers))


def _mutated(rng, layers: tuple[Subspace, ...], n: int) -> tuple[Subspace, ...]:
    """The layers of a module of dimension n with one more fault at a proper layer: one
    widened by a vector of the layer below or cut to part of its basis (often not
    sigma-stable), one repeated or swapped with another (not decreasing), or one of
    another ambient."""
    layers, i = list(layers), rng.randrange(1, len(layers) - 1)
    kind = rng.randrange(4)
    if kind == 0 and layers[i - 1].ambient == n:
        layers[i] = Subspace.span(n, layers[i].basis.data + (rng.choice(layers[i - 1].basis.data),))
    elif kind == 1:
        layers[i] = Subspace.span(layers[i].ambient, [v for v in layers[i].basis.data if rng.random() < 0.6])
    elif kind == 2:
        j = rng.randrange(len(layers))
        layers[i], layers[j] = layers[j], layers[i] if rng.random() < 0.5 else layers[j]
    else:
        layers[i] = rng.choice((Subspace.zero(n + 1), Subspace.full(n + 1), Subspace.zero(n - 1)))
    return tuple(layers)


def _verdict(check) -> str:
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return "valid"


def test_post_init_matches_the_per_vector_checks_on_mutated_modules():
    rng = random.Random(69)
    verdicts = []
    while len(verdicts) < 300:
        a = scrambled_module(rng, random_formal_sum(rng, max_summands=6, max_l=4, weight_span=(-3, 3)))
        if len(a.layers) < 3:
            continue
        layers = _mutated(rng, a.layers, a.dim)
        if rng.random() < 0.4:  # two faults: both checks must report the first in their order
            layers = _mutated(rng, layers, a.dim)
        verdicts.append(_verdict(lambda: FiltModule(a.module, a.weights, layers)))
        assert verdicts[-1] == _verdict(lambda: post_init_by_vectors(a.module, a.weights, layers))
    for message in ("valid", "layer is not sigma-stable", "layers must decrease", "layer ambient mismatch"):
        assert verdicts.count(message) >= 10, (message, verdicts.count(message))


def _oracle_inputs(seed: int) -> list[FiltModule]:
    """Scrambled sums with twists and duals, the zero module, and E(l, m) up to l = 40."""
    rng = random.Random(seed)
    out = [FiltModule.zero()]
    for _ in range(10):
        a = scrambled_module(rng, random_formal_sum(rng, max_summands=3, max_l=4, weight_span=(-3, 3)))
        out += [a, a.twist(rng.randint(-6, 6)), dual(a)]
    out += [realize(e_label(l, rng.randint(-4, 4))) for l in (0, 1, 2, 5, 17, 40)]
    out += [realize(unit_label(rng.randint(-4, 4))) for _ in range(2)]
    return out


def _same_layers(got: FiltModule, want: FiltModule) -> None:
    for w in range(want.w_min - 2, want.w_max + 3):
        assert got.layer(w) == want.layer(w), w
    assert got == want


def test_direct_sum_matches_the_per_weight_oracle():
    mods = _oracle_inputs(61)
    rng = random.Random(62)
    for _ in range(60):
        parts = rng.sample(mods, rng.randint(1, 3))
        _same_layers(direct_sum(*parts), direct_sum_by_weights(*parts))


def test_direct_sum_writes_the_reduced_basis_of_scrambled_summands():
    # the layers are shifted, not eliminated: summands in another basis than the standard
    # one, several of them, each layer basis of a summand reduced but not standard
    rng = random.Random(65)
    scrambled = 0
    for _ in range(40):
        parts = [scrambled_module(rng, random_formal_sum(rng, max_summands=3, max_l=4, weight_span=(-3, 3)))
                 for _ in range(rng.randint(2, 5))]
        parts = [a.twist(rng.randint(-2, 2)) for a in parts]
        scrambled += sum(a != realize_sum(decompose(a).sum) for a in parts)
        _same_layers(direct_sum(*parts), direct_sum_by_weights(*parts))
    assert scrambled >= 80, scrambled


def test_dual_matches_the_per_weight_oracle():
    for a in _oracle_inputs(63):
        _same_layers(dual(a), dual_by_weights(a))
        _same_layers(dual(a.twist(7)), dual_by_weights(a.twist(7)))


def test_tensor_matches_the_per_weight_oracle():
    mods = _oracle_inputs(64)
    rng = random.Random(65)
    pairs = [(a, b) for a in mods[-8:] for b in mods[-8:]] + [tuple(rng.sample(mods, 2)) for _ in range(60)]
    for a, b in pairs:
        _same_layers(tensor(a, b), tensor_by_weights(a, b))


def test_weight_ge_matches_the_per_weight_oracle():
    for a in _oracle_inputs(68):
        for m in range(a.w_min - 2, a.w_max + 3):
            _same_layers(weight_ge(a, m), weight_ge_by_weights(a, m))


def test_is_valid_matches_the_per_weight_oracle():
    mods = _oracle_inputs(66)
    rng = random.Random(67)
    verdicts = []
    for _ in range(150):
        src, tgt = rng.sample(mods, 2)
        if rng.random() < 0.3:
            tgt = src  # identities, and maps into the twist below
        mats = [BitMatrix(tgt.dim, src.dim, tuple(rng.getrandbits(src.dim) for _ in range(tgt.dim)))]
        homs = [f.matrix for f in hom_basis(src, tgt)]
        for _ in range(2 if homs else 0):
            mats.append(BitMatrix.zero(tgt.dim, src.dim))
            for h in homs:
                if rng.getrandbits(1):
                    mats[-1] = mats[-1].add(h)
        if src is tgt:
            mats.append(BitMatrix.identity(src.dim))
        for m in mats:
            for t in (tgt, tgt.twist(1), tgt.twist(-1)):
                f = FiltMorphism(src, t, m)
                verdicts.append(f.is_valid())
                assert verdicts[-1] == is_valid_by_weights(f) == is_valid_by_vectors(f)
    assert 100 < verdicts.count(True) and 100 < verdicts.count(False)


# -- trusted constructions and the one-sided certificate ----------------------

def _public(a: FiltModule) -> FiltModule:
    """a rebuilt by the public constructor, which checks every invariant."""
    return FiltModule(a.module, a.weights, a.layers)


def test_realize_sum_matches_the_direct_sum_oracle():
    rng = random.Random(71)
    sums = [FormalSum(())] + [random_formal_sum(rng, max_summands=8, max_l=6, weight_span=(-6, 6))
                              for _ in range(500)]
    for fs in sums:
        model = realize_sum(fs)
        assert model == realize_sum_by_direct_sum(fs)
        assert _public(model) == model


def test_internal_constructions_pass_the_public_checks():
    """The engine's filtered modules pass the public constructor; they, their
    decomposition certificates, graded pieces and other quotient modules
    pass check_values, as the gf2 values no longer check themselves."""
    mods = _oracle_inputs(72)
    rng = random.Random(73)
    outs = []
    for _ in range(60):
        a, b = rng.sample(mods, 2)
        outs += [direct_sum(*rng.sample(mods, rng.randint(2, 3))), tensor(a, b), dual(a)]
        outs += [weight_ge(a, m) for m in range(a.w_min - 1, a.w_max + 2)]
        outs += [a.twist(r) for r in range(-3, 4)]
    c2_rng = random.Random(74)
    outs += [pwz_module(random_c2_module(c2_rng, 6)) for _ in range(20)]
    outs += [realize(lab) for m in range(-3, 4) for lab in [unit_label(m)] + [e_label(l, m) for l in range(9)]]
    for x in outs:
        assert _public(x) == x
    quotients = [(gr(a), [a.graded(w) for w in range(a.w_min - 1, a.w_max + 2)]) for a in outs]
    check_values(outs, [decompose(x) for x in outs], quotients)


def _one_to_unit_one() -> Decomposition:
    """The identity 1(0) -> 1(1): bijective and filtered, with an inverse
    that is not filtered."""
    one = BitMatrix.identity(1)
    lo, hi = realize(unit_label(0)), realize(unit_label(1))
    return Decomposition(FormalSum.of(unit_label(0)), FiltMorphism(lo, hi, one), FiltMorphism(hi, lo, one))


def _certificate_corpus(rng: random.Random) -> list[Decomposition]:
    """Honest certificates of scrambled sums, and per sum: one column of iso
    flipped (with the old inverse, and with its own when it has one), the
    same matrices into the module twisted up by one (filtered, bijective,
    inverse not filtered), and a random invertible matrix (mostly not
    equivariant); plus the identity E(0, 0) -> 1(0) + 1(0), filtered but
    not equivariant, and 1(0) -> 1(1)."""
    out = [_one_to_unit_one()]
    plain = realize_sum(FormalSum.of(unit_label(0), unit_label(0)))
    ident = BitMatrix.identity(2)
    out.append(Decomposition(FormalSum.of(e_label(0, 0)), FiltMorphism(realize(e_label(0, 0)), plain, ident),
                             FiltMorphism(plain, realize(e_label(0, 0)), ident)))
    for _ in range(150):
        fs = random_formal_sum(rng, max_summands=6, max_l=4, weight_span=(-3, 3))
        dec = decompose(scrambled_module(rng, fs))
        model, a, n = dec.iso.source, dec.iso.target, dec.iso.source.dim
        out.append(dec)
        cols = list(dec.iso.matrix.transpose().data)
        cols[rng.randrange(n)] ^= 1 << rng.randrange(n)
        flipped = BitMatrix(n, n, tuple(cols)).transpose()
        out.append(Decomposition(fs, FiltMorphism(model, a, flipped), dec.inv))
        if (inv := flipped.inverse()) is not None:
            out.append(Decomposition(fs, FiltMorphism(model, a, flipped), FiltMorphism(a, model, inv)))
        up = a.twist(1)
        out.append(Decomposition(fs, FiltMorphism(model, up, dec.iso.matrix), FiltMorphism(up, model, dec.inv.matrix)))
        u = random_invertible(rng, n)
        out.append(Decomposition(fs, FiltMorphism(model, a, u), FiltMorphism(a, model, u.inverse())))
    return out


def test_one_sided_certificate_agrees_with_the_two_sided_check():
    corpus = _certificate_corpus(random.Random(74))
    verdicts = [dec.validate() for dec in corpus]
    assert verdicts == [validate_two_sided(dec) for dec in corpus]
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_one_sided_certificate_refuses_a_bijection_with_an_unfiltered_inverse():
    dec = _one_to_unit_one()
    assert dec.iso.is_valid() and not dec.inv.is_valid()
    assert dec.inv.matrix.mul(dec.iso.matrix).is_identity()
    assert not dec.validate()


# -- exact structure ----------------------------------------------------------

def _seq(l):
    return (FiltMorphism(realize(unit_label(l)), realize(e_label(l, 0)), ETA),
            FiltMorphism(realize(e_label(l, 0)), realize(unit_label(0)), EPS))


def test_fundamental_sequence_admissible():
    f, g = _seq(1)
    assert is_admissible(f, g)
    f3, g3 = _seq(3)
    assert is_admissible(f3, g3)


@pytest.mark.parametrize("l", [1, 3])
def test_admissibility_takes_each_graded_piece_once(l, monkeypatch):
    # 1(l) -> E(l,0) -> 1(0) drops at weights 0 and l: A, B and C once each there
    from ttfilt import filtmod

    calls = []
    counted = lambda *args: calls.append(args) or quotient_module(*args)
    monkeypatch.setattr(filtmod, "quotient_module", counted)
    assert is_admissible(*_seq(l))
    assert len(calls) == 6


def test_pure_sequence_not_admissible():
    u, e0 = realize(unit_label(0)), realize(e_label(0, 0))
    f = FiltMorphism(u, e0, ETA)
    g = FiltMorphism(e0, u, EPS)
    assert not is_admissible(f, g)


def test_split_sequence_admissible():
    a, c = realize(e_label(2, 0)), realize(unit_label(1))
    ac = direct_sum(a, c)
    inc = FiltMorphism(a, ac, BitMatrix.from_blocks(3, 2, [(0, 0, BitMatrix.identity(2))]))
    prj = FiltMorphism(ac, c, BitMatrix.from_blocks(1, 3, [(0, 2, BitMatrix.identity(1))]))
    assert is_admissible(inc, prj)


def test_admissibility_flat_under_tensor():
    # tensoring an admissible sequence with any module keeps it admissible
    f, g = _seq(2)
    for extra in (realize(e_label(1, -1)), realize(unit_label(2)),
                  realize_sum(FormalSum.of(e_label(0, 0), unit_label(0)))):
        fm = _tensor_morphism(f, extra)
        gm = _tensor_morphism(g, extra)
        assert is_admissible(fm, gm)


def _tensor_morphism(f: FiltMorphism, m: FiltModule) -> FiltMorphism:
    return FiltMorphism(tensor(f.source, m), tensor(f.target, m),
                        f.matrix.kron(BitMatrix.identity(m.dim)))


def test_admissibility_rejects_maps_that_are_not_filtered_morphisms():
    # kC2 -> k + k + kC2 -> k + k with a1 -> b3, a2 -> b1 is exact and B = A + C,
    # so the rank criterion would call it split, but neither map is equivariant
    a, b, c = (pwz_module(m) for m in (C2Module.free(1), C2Module.standard(2, 1), C2Module.trivial(2)))
    f = FiltMorphism(a, b, BitMatrix.from_rows([[0, 1], [0, 0], [1, 0], [0, 0]]))
    g = FiltMorphism(b, c, BitMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 1]]))
    assert not f.is_valid() and not g.is_valid()
    with pytest.raises(ValueError, match="filtered morphisms"):
        is_admissible(f, g)


def test_closed_form_admissibility_matches_the_joint_solve():
    # exact iff ranks and dimensions add up; then split iff B = A + C (Miyata)
    rng = random.Random(151)
    verdicts = []
    for _ in range(1000):
        seq = random_graded_sequence(rng)
        verdicts.append(_split_exact_equivariant(*seq))
        assert verdicts[-1] == split_exact_by_solve(*seq)
    assert 200 < sum(verdicts) < 800


def test_projectivity():
    assert is_projective(realize(e_label(1, 5)))
    assert is_projective(realize(e_label(0, -2)))
    assert not is_projective(realize(unit_label(0)))
    assert not is_projective(realize(e_label(2, 0)))
    assert is_projective(tensor(realize(e_label(1, 0)), realize(e_label(3, 1))))
