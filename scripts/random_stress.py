#!/usr/bin/env python3
"""Fuzz the engine invariants on random inputs; exits nonzero on any failure.

Usage: python scripts/random_stress.py [rounds] [seed]
"""

import random
import sys
from pathlib import Path

from ttfilt.chains import (
    C2,
    FILT,
    ChainMap,
    Complex,
    MinimalForm,
    _tensor_diff,
    cone,
    direct_sum_complex,
    dual_complex,
    is_nullhomotopic,
    minimize,
    shift,
    single,
    tensor_complex,
    tensor_layout,
    tensor_map,
    twist_complex,
    validate_complex,
)
from ttfilt.filtmod import (
    FiltModule,
    FormalSum,
    _split_exact_equivariant,
    decompose,
    direct_sum,
    dual,
    gr,
    realize,
    realize_sum,
    tensor,
)
from ttfilt.functors import (
    fgt_complex,
    gr_complex,
    hom_DE,
    hom_modules,
    homology,
    is_zero_DE,
    min_weight,
    pwz_complex,
    res_complex,
    rwz,
    sta_complex,
    tate_dim,
    tfgt,
)
from ttfilt.gf2 import BitMatrix
from ttfilt.motives import expr_labels, expr_support, to_filtered
from ttfilt.shell import deserialize, parse, print_expr, serialize
from ttfilt.samples import random_complex, random_formal_sum, random_label
from ttfilt.spectrum import is_specialization_closed, label_support, supp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
# the test oracles and the samplers built on ttfilt.samples live beside the tests
from helpers import (  # noqa: E402
    check_values,
    contains,
    decompose_by_vectors,
    direct_sum_by_weights,
    has_sum_in_two_degrees,
    hom_basis,
    hom_DE_unminimized,
    minimize_by_conjugation,
    random_chain_map,
    random_expr,
    random_graded_sequence,
    random_module_tree,
    realize_by_twist,
    reduce,
    scrambled_module,
    split_by_gather,
    split_exact_by_solve,
    tensor_diff_by_placement,
    tensor_layout_by_degrees,
    validate_two_sided,
)


def _random_range(rng, n: int) -> range:
    """A contiguous range inside range(n), possibly empty, at either end or inside."""
    lo = rng.randint(0, n)
    return range(lo, rng.randint(lo, n))


def main(rounds: int = 25, seed: int = 0) -> int:
    rng = random.Random(seed)
    failures = 0
    for i in range(rounds):
        fs = random_formal_sum(rng, max_summands=4)
        a = scrambled_module(rng, fs)
        made = []  # the round's engine outputs, for check_values at its end
        if decompose(a).sum != fs:
            print(f"[{i}] decomposition mismatch on {fs.text()}")
            failures += 1
        if decompose(dual(dual(a))).sum != fs:
            print(f"[{i}] double dual mismatch on {fs.text()}")
            failures += 1
        fb = random_formal_sum(rng, max_summands=4)
        b = scrambled_module(rng, fb)
        # bit equality: a filtration stored at its drops is canonical
        if dual(dual(a)) != a:
            print(f"[{i}] double dual is not bit-identical on {fs.text()}")
            failures += 1
        # internal constructions skip the checks: the public constructor re-runs them,
        # and the one-sided certificate must agree with checking both maps
        r = rng.randint(-5, 5)
        for name, c in (("a + b", direct_sum(a, b)), ("a * b", tensor(a, b)), ("dual(a)", dual(a)),
                        (f"a({r})", a.twist(r))):
            try:
                FiltModule(c.module, c.weights, c.layers)
            except ValueError as exc:
                print(f"[{i}] {name} fails the public checks on {fs.text()}, {fb.text()}: {exc}")
                failures += 1
            dec = decompose(c)
            made += [c, dec]
            if dec.validate() != validate_two_sided(dec):
                print(f"[{i}] one- and two-sided certificates of {name} disagree on {fs.text()}, {fb.text()}")
                failures += 1
        if tensor(a.twist(r), b) != tensor(a, b).twist(r):
            print(f"[{i}] tensor does not commute with twist {r} on {fs.text()} * {fb.text()}")
            failures += 1
        if deserialize(serialize(tensor(a, b))) != tensor(a, b):
            print(f"[{i}] serialize round-trip of {fs.text()} * {fb.text()} failed")
            failures += 1
        if hom_DE(single(FILT, a), single(FILT, b)).get(0, 0) != len(hom_basis(a, b)):
            print(f"[{i}] shift-0 derived hom differs from the hom space on {fs.text()} -> {fb.text()}")
            failures += 1
        # labels do not depend on the basis: a and b are realize_sum(fs), realize_sum(fb) scrambled
        if decompose(tensor(a, b)).sum != decompose(tensor(realize_sum(fs), realize_sum(fb))).sum:
            print(f"[{i}] tensor decomposition depends on the basis on {fs.text()} * {fb.text()}")
            failures += 1
        x = random_complex(rng, FILT, rng.randint(2, 3))
        y = random_complex(rng, FILT, 2)
        # both are assembled by placing blocks at offsets: a misplaced block breaks them
        if tensor_map(ChainMap.identity(x), ChainMap.identity(y)) != ChainMap.identity(tensor_complex(x, y)):
            print(f"[{i}] tensor of identities is not the identity")
            failures += 1
        if tate_dim(fgt_complex(direct_sum_complex(x, y))) != tate_dim(fgt_complex(x)) + tate_dim(fgt_complex(y)):
            print(f"[{i}] Tate dimension is not additive")
            failures += 1
        sx, sy = supp(x), supp(y)
        if not (is_specialization_closed(sx) and is_specialization_closed(sy)):
            print(f"[{i}] support not specialization-closed")
            failures += 1
        if supp(direct_sum_complex(x, y)) != sx | sy:
            print(f"[{i}] union law failed")
            failures += 1
        if supp(tensor_complex(x, y)) != sx & sy:
            print(f"[{i}] intersection law failed")
            failures += 1
        if is_zero_DE(x) != (sx == frozenset()):
            print(f"[{i}] conservativity echo failed")
            failures += 1
        # rwz is assembled unchecked: the full validation re-runs here, also at minimum weight 0
        for name, c in (("x", x), ("x * y", tensor_complex(x, y))):
            for r in (0, -min_weight(c)):
                try:
                    made.append(rwz(twist_complex(c, r)))
                    validate_complex(made[-1])
                except ValueError as exc:
                    print(f"[{i}] rwz of {name} twisted by {r} fails the full validation: {exc}")
                    failures += 1
        # dual_complex and cone are assembled unchecked too
        for name, c in (("dual(x)", dual_complex(x)), ("a cone of x -> y", cone(random_chain_map(rng, x, y)))):
            made.append(c)
            try:
                validate_complex(c)
            except ValueError as exc:
                print(f"[{i}] {name} fails the full validation: {exc}")
                failures += 1
        # admissibility by ranks and Miyata's criterion against the joint solve
        for _ in range(20):
            seq = random_graded_sequence(rng)
            if _split_exact_equivariant(*seq) != split_exact_by_solve(*seq):
                print(f"[{i}] closed-form admissibility differs from the solve")
                failures += 1
        if homology(tfgt(x)) != homology(fgt_complex(x)):
            print(f"[{i}] twisted forgetful homology mismatch")
            failures += 1
        # a tensor product is large enough for eliminations with off-block entries
        for name, c in (("x", x), ("x * y", tensor_complex(x, y))):
            mf = minimize(c)
            made += [c, mf]
            if mf != minimize_by_conjugation(c):
                print(f"[{i}] minimization of {name} differs from the conjugation oracle")
                failures += 1
            if mf.proj.compose(mf.incl) != ChainMap.identity(mf.complex):
                print(f"[{i}] minimization proj . incl of {name} is not the identity")
                failures += 1
            if is_nullhomotopic(mf.incl.compose(mf.proj).add(ChainMap.identity(c))) is None:
                print(f"[{i}] minimization certificate of {name} failed")
                failures += 1
        e = random_expr(rng)
        if expr_support(e) != supp(to_filtered(e)):
            print(f"[{i}] planned support differs from the evaluated one on {print_expr(e)}")
            failures += 1
        z = random_complex(rng, C2, 3)
        if gr_complex(pwz_complex(z)) != z:
            print(f"[{i}] graded section law failed")
            failures += 1
        # the closed form on labels against the hom complex, the modules in random degrees
        p, q = rng.randint(-2, 2), rng.randint(-2, 2)
        xa, yb = shift(single(FILT, a), p), shift(single(FILT, b), q)
        if hom_modules(xa, yb) != hom_DE(xa, yb):
            print(f"[{i}] closed-form hom law failed on {fs.text()} -> {fb.text()} in degrees {p}, {q}")
            failures += 1
        # a label atom's support is read off its label: the residue tests on its model must agree
        lab = random_label(rng, max_l=rng.choice((3, 60)), weight_span=(-20, 20))
        if realize(lab) != realize_by_twist(lab):
            print(f"[{i}] the model of {lab.text()} differs from the one built from its module")
            failures += 1
        if label_support(lab) != supp(single(FILT, realize(lab))):
            print(f"[{i}] closed-form support of {lab.text()} differs from the evaluated one")
            failures += 1
        # on its own generator, so the draws above stay those of earlier versions
        side = random.Random(f"{seed}/{i}")
        # split against the entrywise gather, on one random cut of each matrix of the round
        mats = [d for c in made if isinstance(c, Complex) for d in c.diffs]
        mats += [m for mf in made if isinstance(mf, MinimalForm) for _, m in mf.incl.comps + mf.proj.comps]
        for m in mats:
            r, c = _random_range(side, m.rows), _random_range(side, m.cols)
            if m.split(r, c) != split_by_gather(m, r, c):
                print(f"[{i}] split of a {m.rows} x {m.cols} matrix at {r}, {c} differs from the gather")
                failures += 1
            # every kernel of transpose and mul on the same matrix, whatever the rule picks
            other = BitMatrix(m.cols, m.rows, tuple(side.getrandbits(m.rows) for _ in range(m.cols)))
            if not (m._transpose_rows() == m._transpose_packed() == m._transpose_wide()):
                print(f"[{i}] the transpose kernels differ on a {m.rows} x {m.cols} matrix")
                failures += 1
            if not (m._mul_rows(other) == m._mul_packed(other) == m._mul_wide(other)):
                print(f"[{i}] the product kernels differ on a {m.rows} x {m.cols} matrix")
                failures += 1
        # hom_DE runs on minimal models: the hom complex of x and y themselves must agree
        if hom_DE(x, y) != hom_DE_unminimized(x, y) or hom_DE(tensor_complex(x, y), x) != \
                hom_DE_unminimized(tensor_complex(x, y), x):
            print(f"[{i}] hom_DE differs from the hom complex of the unminimized arguments")
            failures += 1
        # fundl(l) and Lpure(n) take their support from the name: the residue tests must agree
        for text in (f"fundl({side.randint(1, 40)})", f"Lpure({side.randint(-10, 10)})"):
            if expr_support(parse(text)) != supp(to_filtered(parse(text))):
                print(f"[{i}] planned support of {text} differs from the evaluated one")
                failures += 1
        # the label planner reads the labels off the tree: decompose of the evaluated module must agree
        t = random_module_tree(side)
        planned, xt = expr_labels(t), to_filtered(t)
        if planned is None and not has_sum_in_two_degrees(t):
            print(f"[{i}] the label planner gave up on the module {print_expr(t)}")
            failures += 1
        elif planned is not None and (FormalSum(()) if xt.is_zero() else decompose(xt.term(planned[0])).sum) != planned[1]:
            print(f"[{i}] planned labels differ from the decomposition on {print_expr(t)}")
            failures += 1
        # one layout per tensor product, and direct sums written down with no elimination, against
        # the per-degree and per-weight oracles
        xd = twist_complex(dual_complex(y), side.randint(-2, 2))
        for u, v in ((x, y), (x, xd)):
            layout = tensor_layout(u, v)
            if layout != tensor_layout_by_degrees(u, v) or \
                    any(_tensor_diff(u, v, layout, n) != tensor_diff_by_placement(u, v, n)
                        for n in range(u.d_min + v.d_min - 1, u.d_max + v.d_max + 2)):
                print(f"[{i}] the tensor layout or differential differs from the per-degree oracle")
                failures += 1
        parts = [a, b.twist(side.randint(-3, 3)), dual(a)]
        if direct_sum(*parts) != direct_sum_by_weights(*parts):
            print(f"[{i}] direct sum differs from the per-weight oracle on {fs.text()}, {fb.text()}")
            failures += 1
        # the residue kernels and decompose against the per-vector oracles on the round's filtered
        # modules, the vectors drawn last from the side generator
        for c in [a, b] + [m for m in made if isinstance(m, FiltModule)]:
            dec, oracle = decompose(c), decompose_by_vectors(c)
            if (dec.sum, dec.iso.matrix, dec.inv.matrix) != (oracle.sum, oracle.iso.matrix, oracle.inv.matrix):
                print(f"[{i}] decompose differs from the per-vector oracle on a module of dimension {c.dim}")
                failures += 1
            for lay in c.layers:
                vecs = lay.basis.data + tuple(side.getrandbits(c.dim) for _ in range(side.randint(0, c.dim)))
                want = tuple(reduce(lay, v) for v in vecs)
                if not (lay.reduce_all(vecs) == lay._reduce_rows(vecs) == lay._reduce_packed(vecs) == want) or \
                        lay.contains_all(vecs) != all(contains(lay, v) for v in vecs):
                    print(f"[{i}] the residues of {len(vecs)} vectors modulo a layer differ from the per-vector reduce")
                    failures += 1
        # gf2 values check nothing on construction: every output of the round must be well formed
        plain = [fgt_complex(x), gr_complex(x), z] + [c for c in made if isinstance(c, Complex) and c.kind == C2]
        made += [a, b, gr(a), to_filtered(e), pwz_complex(z), tfgt(x)] + plain
        made += [f(c) for c in plain for f in (sta_complex, res_complex)]
        try:
            check_values(made)
        except ValueError as exc:
            print(f"[{i}] an engine value is malformed: {exc}")
            failures += 1
    print(f"{rounds} rounds, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(main(rounds, seed))
