"""`chains.minimize` against its conjugation-matrix oracle, and its leak checks."""

import random

import pytest

from helpers import chain_iso_inverse, decompose_by_meets, minimize_by_conjugation, scrambled_module
from ttfilt import chains
from ttfilt.gf2 import BitMatrix, C2Module
from ttfilt.filtmod import MathEngineError, e_label, realize
from ttfilt.chains import (
    C2,
    F2,
    FILT,
    Complex,
    build_complex,
    invertpur_pow,
    minimize,
    single,
    tensor_complex,
)
from ttfilt.functors import rwz
from ttfilt.samples import random_complex, random_formal_sum


def _same_as_oracle(x):
    # MinimalForm equality is bit equality of the complex, incl, proj and labels
    assert minimize(x) == minimize_by_conjugation(x)


@pytest.mark.parametrize("kind", [FILT, C2, F2])
def test_minimize_matches_oracle_on_random_complexes(kind):
    rng = random.Random(f"minimize/{kind}")
    xs = [random_complex(rng, kind, rng.randint(2, 4), d_min=rng.randint(-1, 1)) for _ in range(24)]
    for x in xs + [Complex(kind, 0, (), ()), Complex(kind, 3, (), ())]:
        _same_as_oracle(x)
    for x, y in zip(xs[::2], xs[1::2]):
        _same_as_oracle(tensor_complex(x, y))


def test_minimize_with_the_closed_form_decomposition_is_isomorphic(monkeypatch):
    # the two decompositions agree on labels but not on the iso matrices, so the
    # minimal complexes agree up to a chain isomorphism; its witness is the
    # comparison map p . i' between the two minimal forms of one complex, as the
    # bounded search of find_chain_iso gives up on most of the tensor products
    rng = random.Random("minimize/decompose")

    def term():
        return scrambled_module(rng, random_formal_sum(rng, max_summands=3, max_l=3))

    xs = [random_complex(rng, FILT, rng.randint(2, 4), term_gen=term, d_min=rng.randint(-1, 1))
          for _ in range(20)]
    xs += [tensor_complex(x, y) for x, y in zip(xs[::2], xs[1::2])]
    new = [minimize(x) for x in xs]
    monkeypatch.setattr(chains, "decompose", decompose_by_meets)
    old = [minimize(x) for x in xs]
    monkeypatch.undo()
    for a, b in zip(new, old):
        assert a.labels == b.labels
        assert chain_iso_inverse(a.proj.compose(b.incl)) is not None


@pytest.mark.parametrize("l", range(1, 8))
def test_minimize_matches_oracle_on_rwz_of_labels(l):
    _same_as_oracle(rwz(single(FILT, realize(e_label(l, 0)))))


@pytest.mark.parametrize("n", range(1, 5))
def test_minimize_matches_oracle_on_inverse_pairs(n):
    _same_as_oracle(tensor_complex(invertpur_pow(n), invertpur_pow(-n)))


def test_incoming_leak_is_reported():
    # 1 -> 1 -> 1 with both maps the identity: d.d != 0 above the unit block
    x = build_complex(F2, {2: 1, 1: 1, 0: 1}, {2: BitMatrix.identity(1), 1: BitMatrix.identity(1)})
    with pytest.raises(MathEngineError, match="incoming differential leaks into eliminated summand"):
        minimize(x)


def test_outgoing_leak_is_reported():
    # k -> k (identity) in degree 1, then eta: k -> kC2; only the first is a unit
    k, reg = C2Module.trivial(1), C2Module.free(1)
    eta = BitMatrix.from_rows([[1], [1]])
    x = build_complex(C2, {2: k, 1: k, 0: reg}, {2: BitMatrix.identity(1), 1: eta})
    with pytest.raises(MathEngineError, match="outgoing differential leaks from eliminated summand"):
        minimize(x)
