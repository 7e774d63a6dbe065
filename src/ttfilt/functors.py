"""Functors between the filtered world and complexes of plain modules.

The six residue tests of the spectrum layer are assembled from these:
total-graded and forgetful functors, restriction to the trivial group,
the stable (fixed-modulo-norm) quotient, folded Tate cohomology, and the
derived weight-zero functors rwz / tfgt.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain

from .gf2 import BitMatrix, C2Module, Subspace, image, kernel_space, quotient_module, induced_map
from .filtmod import (UNIT, FiltMorphism, FormalSum, MathEngineError, _tensor_layer, decompose, dual_labels, fgt,
                      gr_map, pwz_module, tensor_labels)
from .chains import (
    C2,
    F2,
    FILT,
    ChainMap,
    Complex,
    _tensor_diff,
    build_complex,
    direct_sum_complex,
    dual_complex,
    injres_trunc,
    invertpur_pow,
    minimize,
    tensor_complex,
    tensor_layout,
    twist_complex,
)


# ---------------------------------------------------------------------------
# The two shared constructions
# ---------------------------------------------------------------------------


def _subquotient_complex(kind, parts: dict, diff) -> Complex:
    """Degreewise subquotients sub/below of parts[n] = (module, sub, below)
    (modules for kind C2, dimensions for F2), with the maps that diff(n)
    induces between adjacent nonzero terms.  Callers pass stable subspaces
    kept by the differentials of a valid complex, so the result is one."""
    terms, reps = {}, {}
    for n, (module, sub, below) in parts.items():
        q, reps[n] = quotient_module(module, sub, below)
        terms[n] = q if kind == C2 else q.dim
    diffs = {n: induced_map(reps[n], reps[n - 1], parts[n - 1][2], diff(n))
             for n in parts if n - 1 in parts and reps[n].rows and reps[n - 1].rows}
    return build_complex(kind, terms, diffs)


def _termwise(x: Complex, kind, f) -> Complex:
    """f applied to each term of x, the differentials kept: f is a functor."""
    terms = {n: f(t) for n, t in zip(x.degrees(), x.terms)}
    return build_complex(kind, terms, dict(zip(x.degrees()[1:], x.diffs)))


# ---------------------------------------------------------------------------
# Graded and forgetful functors
# ---------------------------------------------------------------------------


def gr_complex(x: Complex) -> Complex:
    """Degreewise total-graded complex over plain modules: differentials
    preserve weight, so it is the direct sum of the weight pieces at the
    drop weights of the terms (the others are zero), weights ascending."""
    if x.kind != FILT:
        raise ValueError("gr applies to filtered complexes")
    weights = sorted({w for t in x.terms for w, _ in t.drops()})
    return direct_sum_complex(Complex(C2, 0, (), ()), *(gr_component_complex(x, w) for w in weights))


def gr_component_complex(x: Complex, w: int) -> Complex:
    """The weight-w graded piece of a filtered complex; only the terms with
    weight w in their range can have a nonzero piece."""
    parts = {n: (t.module, t.layer(w), t.layer(w + 1)) for n, t in zip(x.degrees(), x.terms)
             if t.w_min <= w <= t.w_max}
    return _subquotient_complex(C2, parts, x.diff)


def gr_component_map(f: ChainMap, w: int) -> ChainMap:
    """Weight-w graded piece of a chain map between filtered complexes."""
    src = gr_component_complex(f.source, w)
    tgt = gr_component_complex(f.target, w)
    comps = {}
    for n, mat in f.comps:
        comp = gr_map(FiltMorphism(f.source.term(n), f.target.term(n), mat), w)
        if comp.rows and comp.cols:
            comps[n] = comp
    return ChainMap.of(src, tgt, comps)


def fgt_complex(x: Complex) -> Complex:
    """Forget the filtrations degreewise."""
    if x.kind != FILT:
        raise ValueError("fgt applies to filtered complexes")
    return _termwise(x, C2, fgt)


def homology(y: Complex) -> dict[int, tuple[int, int]]:
    """Per-degree homology of a plain complex, as (trivial, free) splits."""
    if y.kind != C2:
        raise ValueError("homology applies to plain complexes")
    out = {}
    for n in range(y.d_min, y.d_max + 1):
        cycles = kernel_space(y.diff(n))
        boundaries = image(y.diff(n + 1))
        h, _ = quotient_module(y.term(n), cycles, boundaries)
        if h.dim:
            out[n] = h.module_split()
    return out


# ---------------------------------------------------------------------------
# Residue building blocks
# ---------------------------------------------------------------------------


def res_complex(y: Complex) -> Complex:
    """Restrict to the trivial group: keep dimensions and matrices only."""
    if y.kind != C2:
        raise ValueError("res applies to plain complexes")
    return _termwise(y, F2, lambda t: t.dim)


def betti(z: Complex) -> dict[int, int]:
    """The nonzero homology dimensions of a vector-space complex, by rank
    counting: dim z_n - rank d_n - rank d_{n+1}, each rank taken once."""
    if z.kind != F2:
        raise ValueError("exactness test applies to vector-space complexes")
    ranks = [0, *(d.rank() for d in z.diffs), 0]
    homs = ((z.d_min + i, dim - ranks[i] - ranks[i + 1]) for i, dim in enumerate(z.terms))
    return {n: h for n, h in homs if h}


def is_exact_F2(z: Complex) -> bool:
    """Exactness of a vector-space complex: no homology in any degree."""
    return not betti(z)


def sta_complex(y: Complex) -> Complex:
    """Degreewise fixed-points modulo norm image, with induced maps."""
    if y.kind != C2:
        raise ValueError("sta applies to plain complexes")
    norms = {n: (t, t.norm()) for n, t in zip(y.degrees(), y.terms)}
    parts = {n: (t, kernel_space(norm), image(norm)) for n, (t, norm) in norms.items()}
    return _subquotient_complex(F2, parts, y.diff)


def tate_dim(y: Complex) -> int:
    """Folded Tate cohomology dimension of a plain complex.

    Folds all degrees into one space and combines the differential with
    the norm; the square vanishes because differentials are equivariant
    and the characteristic is 2.  The result is the dimension of the image
    in the stable category.
    """
    if y.kind != C2:
        raise ValueError("tate applies to plain complexes")
    total = y.total_dim()
    if total == 0:
        return 0
    offs = [0, *accumulate(t.dim for t in y.terms)]
    blocks = [(offs[i], offs[i], t.norm()) for i, t in enumerate(y.terms)]
    blocks += [(offs[i], offs[i + 1], d) for i, d in enumerate(y.diffs)]
    op = BitMatrix.from_blocks(total, total, blocks)
    if not op.mul(op).is_zero():
        raise MathEngineError("folded Tate operator does not square to zero")
    return total - 2 * op.rank()


# ---------------------------------------------------------------------------
# Weight-zero functors
# ---------------------------------------------------------------------------


def pwz_complex(y: Complex) -> Complex:
    """Place a plain complex in pure weight zero."""
    if y.kind != C2:
        raise ValueError("pwz applies to plain complexes")
    return _termwise(y, FILT, pwz_module)


def max_weight(x: Complex) -> int:
    return max((t.w_max for t in x.terms if not t.is_zero()), default=0)


def min_weight(x: Complex) -> int:
    return min((t.w_min for t in x.terms if not t.is_zero()), default=0)


def _weight_zero_blocks(x: Complex):
    """Per degree of injres_trunc(j) (x) x with a pair of nonzero terms, for
    j = max-weight + 1, one (offset, Kronecker sigma, weight-zero layer span)
    block per pair of one tensor_layout, and the differential out of a degree
    n as a function of n.  No blocks when x is zero or j <= 0."""
    j = max_weight(x) + 1
    if x.is_zero() or j <= 0:
        return {}, None
    inj = injres_trunc(j)
    layout = tensor_layout(inj, x)
    blocks, krons = {}, {}  # krons: the differential's Kronecker blocks, shared by the degrees
    for n, (_, summands) in layout.items():
        for p, q, off in summands:
            a, b = inj.term(p), x.term(q)
            blocks.setdefault(n, []).append((off, a.module.sigma.kron(b.module.sigma), _tensor_layer(a, b, 0)))
    return blocks, lambda n: _tensor_diff(inj, x, layout, n, krons)


def rwz(x: Complex) -> Complex:
    """Right-derived weight-zero part.

    The degreewise weight-zero part of injres_trunc(j) (x) x, for the
    truncation length j = max-weight + 1.  That length is exact: all
    omitted resolution terms have vanishing weight-zero part against x.
    The L residue test applies rwz at minimum weight 0, where j is the
    weight span + 1.  Only the weight-zero layer of each term is spanned,
    in the coordinates and summand order of tensor_complex; the filtered
    tensor complex itself is never built.
    """
    if x.kind != FILT:
        raise ValueError("rwz applies to filtered complexes")
    blocks, diff = _weight_zero_blocks(x)
    parts = {}
    for n, pieces in blocks.items():
        sigma = BitMatrix.block_diag(s for _, s, _ in pieces)
        vecs = [v << off for off, _, layer in pieces for v in layer]
        parts[n] = (C2Module(sigma.rows, sigma), Subspace.span(sigma.rows, vecs), Subspace.zero(sigma.rows))
    return _subquotient_complex(C2, parts, diff)


def tfgt(x: Complex) -> Complex:
    """Twisted forgetful functor: twist to effectivity, apply rwz, untwist
    by the canonical invertible complex, and minimize."""
    if x.kind != FILT:
        raise ValueError("tfgt applies to filtered complexes")
    if x.is_zero():
        return Complex(C2, 0, (), ())
    n = max(0, -min_weight(x))
    core = rwz(twist_complex(x, n))
    return minimize(tensor_complex(core, invertpur_pow(n))).complex


def is_zero_DE(x: Complex) -> bool:
    """Zero test in the derived category: the graded complex is contractible."""
    return minimize(gr_complex(x)).complex.is_zero()


# ---------------------------------------------------------------------------
# Derived hom dimensions
# ---------------------------------------------------------------------------


def hom_DE(x: Complex, y: Complex) -> dict[int, int]:
    """Graded dimensions of the derived hom from x to y.

    The dimension in shift n is the homology in degree -n of the total hom
    complex from x into injres_trunc(j) (x) y.  A filtered equivariant map
    a -> b is a sigma-fixed vector of the weight-zero layer of dual(a) (x) b,
    and in characteristic 2 the hom differential g -> d.g + g.d is the
    tensor differential, so that complex is the sigma-fixed part of the
    blocks of rwz on w = dual(x) (x) y.  As for rwz, j = max-weight(w) + 1
    is exact: omitted resolution terms have no weight-zero part against w.
    It is at most max-weight(y) - min-weight(x) + 1.

    x and y are replaced by their minimal models first, which only makes w
    and injres (x) w smaller; a complex whose differentials are all zero
    has no unit to eliminate and is kept.  The answer does not change:
    minimize gives filtered chain maps i, p with p.i = id and i.p homotopic
    to the identity, and the hom complex into the injective resolution is a
    functor of x and y that is additive and takes filtered homotopies to
    homotopies, so the homotopy equivalences induce isomorphisms on its
    homology.  The minimal models' j may be smaller; it is exact for them by
    the argument above.
    """
    if x.kind != FILT or y.kind != FILT:
        raise ValueError("hom_DE applies to filtered complexes")
    x, y = (minimize(z).complex if any(not d.is_zero() for d in z.diffs) else z for z in (x, y))
    w = tensor_complex(dual_complex(x), y)
    blocks, diff = _weight_zero_blocks(w)
    fixed = {n: [] for n in sorted(blocks)}  # ascending: the layout lists degrees unsorted
    kept = {}  # the fixed vectors of each distinct block: along the resolution the blocks repeat
    for n in fixed:
        for off, sigma, layer in blocks[n]:
            key = (sigma, tuple(layer))
            if key not in kept:
                span = Subspace.span(sigma.rows, layer).basis
                cols = span.transpose()
                # the combinations of the span that N = 1 + sigma kills
                kept[key] = sigma.mul(cols).add(cols).kernel().mul(span).data
            fixed[n].extend(v << off for v in kept[key])
    ranks = {}
    for n in list(fixed)[1:]:
        if fixed[n]:
            d = diff(n)
            below = fixed.get(n - 1, [])  # a degree with no pair has no fixed vectors
            # the images of the fixed vectors are the columns of d.f
            f = BitMatrix(len(fixed[n]), d.cols, tuple(fixed[n])).transpose()
            images = list(d.mul(f).transpose().data)
            # below is independent, so it spans the images iff they add no rank
            if Subspace.span(d.rows, below + images).dim > len(below):
                raise MathEngineError("hom differential left the hom space")
            ranks[n] = Subspace.span(d.rows, images).dim
    out = {}
    for n, vecs in fixed.items():
        h = len(vecs) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if h:
            out[-n] = h
    return out


def hom_labels(shift: int, xs: FormalSum, ys: FormalSum) -> dict[int, int]:
    """hom_DE(x, y) in closed form for modules x and y with labels xs and ys,
    in degrees p and q with p - q = shift; nothing is evaluated or decomposed.

    hom is additive in each argument and unchanged by a common twist, and by
    rigidity hom(lam, mu) = hom(1(0), dual(lam) (x) mu), whose labels follow
    from filtmod's label arithmetic: dual(E(l, m)) = E(l, -l-m) (1(m) is the
    case l = 0), E(l, m) (x) 1(n) = E(l, m+n) and E(l, m) (x) E(l', m') =
    E(a, m+m') + E(a, m+m'+b), with a = min(l, l') and b = max(l, l').
    hom(1(0), 1(n)) has one dimension in each shift 0 .. n: H^{p,q}(R; Z/2) =
    Z/2 for 0 <= p <= q (Voevodsky's proof of the Milnor conjecture).
    hom(1(0), E(l, n)) has the shifts 0 <= k <= n+l other than 1 <= k <= n+1:
    for l >= 1 by the long exact sequence of 1(n+l) -> E(l, n) -> 1(n), whose
    connecting class rho.tau^(l-1) in H^{1,l} multiplies injectively on
    Z/2[tau, rho]; E(0, n) is free, with the cohomology Z/2[tau] of C.  The
    degrees move every shift by p - q.  The cost follows the number of labels
    and the length of the answer, not the weight span.
    """
    out = Counter()
    for nu in tensor_labels(dual_labels(xs), ys).labels:
        w, a = nu.m, nu.l
        out.update(range(w + 1) if nu.kind == UNIT
                   else chain(range(min(1, w + a + 1)), range(max(1, w + 2), w + a + 1)))
    return {k + shift: d for k, d in out.items()}


def hom_modules(x: Complex, y: Complex) -> dict[int, int]:
    """hom_DE(x, y) for x and y each a module in one degree (or zero):
    hom_labels of their validated decompositions."""
    labels = lambda z: FormalSum(()) if z.is_zero() else decompose(z.term(z.d_min)).sum
    return hom_labels(x.d_min - y.d_min, labels(x), labels(y))
