"""The closed form `functors.hom_modules` against its oracle `functors.hom_DE`.

hom_DE builds the hom complex out of dual(x) (x) y and a truncated
injective resolution; hom_modules reads the answer off the labels of x and
y.  They must agree on every pair of modules: scrambled sums under twists,
duals and shifts, zero modules, empty answers, and every label pair with
l <= 40.  The laws the closed form rests on are in test_invariance.py.
"""

import random

from ttfilt.chains import FILT, shift, single
from ttfilt.filtmod import FiltModule, FormalSum, dual, e_label, realize, unit_label
from ttfilt.functors import hom_DE, hom_modules
from ttfilt.samples import random_formal_sum
from helpers import scrambled_module
from ttfilt.shell import run


def module(a: FiltModule, degree: int = 0):
    return shift(single(FILT, a), degree)


def random_side(rng: random.Random):
    """A scrambled sum (or, one time in twelve, zero), maybe dualized,
    twisted by -6..6 and placed in degree -2..2."""
    fs = FormalSum(()) if rng.random() < 1 / 12 else \
        random_formal_sum(rng, max_summands=3, max_l=4, weight_span=(-3, 3))
    a = scrambled_module(rng, fs)
    if rng.random() < 0.3:
        a = dual(a)
    return module(a.twist(rng.randint(-6, 6)), rng.randint(-2, 2))


def test_hom_modules_matches_hom_DE_on_scrambled_sums():
    rng = random.Random(16)
    zero_sides = empty = 0
    for _ in range(500):
        x, y = random_side(rng), random_side(rng)
        dims = hom_DE(x, y)
        assert hom_modules(x, y) == dims
        zero_sides += x.is_zero() + y.is_zero()
        empty += not dims
    assert zero_sides >= 40 and empty >= 100


def test_hom_modules_matches_hom_DE_on_every_label_pair_up_to_length_40():
    # each pair at one twist difference from the window [-l' - 2, l + 2] where
    # its answer changes shape, the offset cycling through the window
    labs = [unit_label(0)] + [e_label(l, 0) for l in range(41)]
    nonzero = 0
    for i, (lam, mu) in enumerate((lam, mu) for lam in labs for mu in labs):
        lo, hi = -mu.l - 2, lam.l + 2
        s, d = i % 7 - 3, lo + (5 * i) % (hi - lo + 1)
        x, y = module(realize(lam).twist(s)), module(realize(mu).twist(s + d), i % 3 - 1)
        dims = hom_DE(x, y)
        assert hom_modules(x, y) == dims, (lam, mu, s, d)
        nonzero += bool(dims)
    assert 0 < nonzero < len(labs) ** 2


def test_hom_modules_of_units_is_the_motivic_cohomology_of_the_point():
    u = module(realize(unit_label(0)))
    for n in range(-2, 30):
        assert hom_modules(u, module(realize(unit_label(n)))) == {k: 1 for k in range(n + 1)}
    assert hom_modules(u, module(FiltModule.zero())) == {}
    assert hom_modules(module(FiltModule.zero()), u) == {}


def test_run_hom_answers_modules_in_closed_form_and_complexes_through_hom_DE(monkeypatch):
    from ttfilt import functors, shell

    # run reads the functions through the names shell imports; hom_modules
    # decomposes through the name functors imports
    calls = []
    for module, name in ((shell, "hom_DE"), (shell, "hom_modules"), (shell, "hom_labels"),
                         (shell, "evaluate"), (functors, "decompose")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    # label trees: the planner's labels, nothing evaluated or decomposed
    assert run("hom", ["E(2,0) + 1(1)", "shift(E(3,1), 1)"]).result == \
        ["n=-1 dim=3", "n=0 dim=1", "n=1 dim=1", "n=2 dim=1", "n=3 dim=1"]
    assert run("hom", ["0", "1(2)"]).result == ["zero in all shifts"]
    assert calls == ["hom_labels", "hom_labels"]
    # a module in one degree with a catalog leaf: evaluated, then hom_modules
    del calls[:]
    assert run("hom", ["Lpure(0)", "1(2)"]).result == ["n=0 dim=1", "n=1 dim=1", "n=2 dim=1"]
    assert calls == ["evaluate", "evaluate", "hom_modules", "decompose", "decompose"]
    # a complex: hom_DE
    del calls[:]
    assert run("hom", ["fund0", "1(2)"]).result == ["n=4 dim=1"]
    assert calls == ["evaluate", "evaluate", "hom_DE"]
