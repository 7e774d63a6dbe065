"""Filtered modules over the order-2 group algebra in characteristic 2.

A filtered module is an ambient C2Module together with a finite decreasing
chain of invariant subspaces indexed by integer weights, stored only where
it strictly drops, as a persistence barcode is stored at its critical
values: every operation below costs by drops, not by the weight span.
This module implements the tensor category structure (tensor, dual,
twist), the weight functors (gr, fgt), Krull-Schmidt
decomposition with explicit isomorphism certificates, and the
exactness/projectivity tests that the derived-category layer builds on.
The decomposition is one persistence reduction of N = 1 + sigma on a basis
adapted to the weight layers V_w: the summands and a basis adapted to them
are read off its pairing, with no search over candidate summands.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import NamedTuple

from .gf2 import (
    BitMatrix,
    C2Module,
    LinearSystem,
    Subspace,
    _spread,
    equivariance_rows,
    induced_map,
    insert_independent,
    quotient_module,
)


class MathEngineError(Exception):
    """An internal mathematical invariant failed; signals an engine bug."""


# ---------------------------------------------------------------------------
# Labels and formal sums
# ---------------------------------------------------------------------------

UNIT = "1"
REG = "E"


class IndecLabel(NamedTuple):
    """Indecomposable label: the trivial line 1(n) or the regular module E(l, m).

    Plain data: kind is UNIT (with l = 0) or REG, and l >= 0.  Outside text
    becomes a label only in the grammar (motives._atom_label) and in
    shell.deserialize, which check these fields there."""

    kind: str
    l: int
    m: int

    @property
    def dim(self) -> int:
        return 1 if self.kind == UNIT else 2

    def text(self) -> str:
        if self.kind == UNIT:
            return f"1({self.m})"
        return f"E({self.l},{self.m})"


def unit_label(n: int) -> IndecLabel:
    return IndecLabel(UNIT, 0, n)


def e_label(l: int, m: int) -> IndecLabel:
    return IndecLabel(REG, l, m)


@dataclass(frozen=True)
class FormalSum:
    """Multiset of indecomposable labels, stored sorted (canonical)."""

    labels: tuple[IndecLabel, ...]

    @staticmethod
    def of(*labels: IndecLabel) -> "FormalSum":
        return FormalSum(tuple(sorted(labels)))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(tuple(sorted(self.labels + other.labels)))

    def is_zero(self) -> bool:
        return not self.labels

    def text(self) -> str:
        if not self.labels:
            return "0"
        return " + ".join(lab.text() for lab in self.labels)


# The label arithmetic: the labels of the dual and of the tensor of modules
# with labels fs and gs (a twist by r is the tensor with 1(r)), by the rules
# that functors.hom_labels states.


def dual_labels(fs: FormalSum) -> FormalSum:
    return FormalSum.of(*(lab._replace(m=-lab.l - lab.m) for lab in fs.labels))


def tensor_labels(fs: FormalSum, gs: FormalSum) -> FormalSum:
    out = []
    for lam, mu in product(fs.labels, gs.labels):
        if UNIT in (lam.kind, mu.kind):
            out.append((mu if lam.kind == UNIT else lam)._replace(m=lam.m + mu.m))
        else:
            a, b = sorted((lam.l, mu.l))
            out += [e_label(a, lam.m + mu.m), e_label(a, lam.m + mu.m + b)]
    return FormalSum.of(*out)


# ---------------------------------------------------------------------------
# Filtered modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltModule:
    """C2-module with a decreasing chain of invariant subspaces, stored at
    its strict drops: layers[i] is the subspace of weight >= w for
    weights[i] <= w < weights[i + 1], the last one from weights[-1] on.

    Weights strictly increase and layers strictly decrease, from the full
    space at weights[0] = w_min (there only: tight at the bottom) to zero
    from weights[-1] = w_max + 1, so layers[-2] is nonzero (tight at the
    top) and E(l, m) has three layers for any l.  Equal objects have
    bit-identical representations.  The zero module has the one layer 0 at
    weight 0, the empty range 0 .. -1.
    """

    module: C2Module
    weights: tuple[int, ...]
    layers: tuple[Subspace, ...]

    def __post_init__(self):
        n, sigma = self.module.dim, self.module.sigma
        if not (sigma.rows == sigma.cols == n and sigma.mul(sigma).is_identity()):
            raise ValueError("sigma is not an involution")
        if not self.layers or len(self.layers) != len(self.weights):
            raise ValueError("layer count mismatch")
        if not self.layers[0].is_full():
            raise ValueError("bottom layer must be the whole space")
        if not self.layers[-1].is_zero():
            raise ValueError("top layer must vanish")
        prev = None
        for lay in self.layers:
            if lay.ambient != n:
                raise ValueError("layer ambient mismatch")
            if prev is not None and (prev.dim == lay.dim or not prev.contains_space(lay)):
                raise ValueError("layers must decrease")
            # the zero layer maps no vector, and the full one contains any image
            if 0 < lay.dim < n and not lay.contains_all(lay.basis.mul(sigma.transposed).data):
                raise ValueError("layer is not sigma-stable")
            prev = lay
        if any(v >= w for v, w in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must increase")
        if len(self.weights) > 1 and self.weights[1] != self.weights[0] + 1:
            raise ValueError("weight range not tight at bottom")

    @staticmethod
    def of(module: C2Module, pairs) -> "FiltModule":
        """From (weight, layer) pairs, weights increasing: each layer holds
        up to the next weight and the last, which must be zero, from its
        weight on; below the first weight the space is full.  Equal
        neighbours merge, and the full layer is kept at the one weight
        below the first proper layer, so the result is tight.  Every
        invariant is checked, as by the public constructor."""
        a = FiltModule._of(module, pairs)
        return FiltModule(a.module, a.weights, a.layers)

    @staticmethod
    def _of(module: C2Module, pairs) -> "FiltModule":
        """`of` without the checks of __post_init__: the one unchecked
        constructor.  Only the engine's own constructions call it
        (the standard models, pwz_module, and direct_sum, tensor, dual and
        twist of valid modules), whose layers are invariant and decreasing by
        the argument in each docstring; the tests re-check their outputs
        through the public constructor, which deserializing and the sample
        generators keep."""
        if module.dim == 0:
            return FiltModule.zero()
        weights, layers = [], []
        for w, lay in pairs:
            if not layers or lay != layers[-1]:
                weights.append(w)
                layers.append(lay)
        if layers[0].is_full() and len(layers) > 1:
            weights[0] = weights[1] - 1
        else:
            weights.insert(0, weights[0] - 1)
            layers.insert(0, Subspace.full(module.dim))
        a = object.__new__(FiltModule)
        for name, value in (("module", module), ("weights", tuple(weights)), ("layers", tuple(layers))):
            object.__setattr__(a, name, value)
        return a

    @staticmethod
    def zero() -> "FiltModule":
        return FiltModule(C2Module.trivial(0), (0,), (Subspace.zero(0),))

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def w_min(self) -> int:
        return self.weights[0]

    @property
    def w_max(self) -> int:
        return self.weights[-1] - 1

    def is_zero(self) -> bool:
        return self.dim == 0

    def layer(self, w: int) -> Subspace:
        return self.layers[max(bisect_right(self.weights, w) - 1, 0)]

    def drops(self) -> list[tuple[int, Subspace]]:
        """(w, V_w) for each w with V_w != V_{w+1}, ascending: the top weight
        and layer of each stored interval below the zero layer."""
        return [(w - 1, lay) for w, lay in zip(self.weights[1:], self.layers)]

    def graded(self, w: int) -> tuple[C2Module, BitMatrix]:
        """The weight-w graded piece layer(w) / layer(w + 1), with the coset
        representatives of `quotient_module`."""
        return quotient_module(self.module, self.layer(w), self.layer(w + 1))

    def twist(self, r: int) -> "FiltModule":
        if self.is_zero() or r == 0:
            return self
        return FiltModule._of(self.module, zip((w + r for w in self.weights), self.layers))


def fgt(a: FiltModule) -> C2Module:
    return a.module


def pwz_module(m: C2Module) -> FiltModule:
    """The module placed in pure weight zero: full up to weight 0, zero from 1."""
    return FiltModule._of(m, [(1, Subspace.zero(m.dim))])


# Entries kept by each of the realize and realize_sum caches.
_CACHE_SIZE = 1024


def direct_sum(*mods: FiltModule) -> FiltModule:
    """Direct sum of any number of filtered modules, in the given order.  A
    summand's reduced echelon layer basis, shifted onto its own coordinate
    block, stays reduced; the blocks are disjoint and increasing, so the
    shifted bases in order are the reduced echelon basis of the sum's layer."""
    live = [a for a in mods if not a.is_zero()]
    if len(live) <= 1:
        # one of the inputs when it is the sum, so no new object is built
        return (live or mods or [FiltModule.zero()])[0]
    mod = C2Module(sum(a.dim for a in live), BitMatrix.block_diag(a.module.sigma for a in live))
    offsets = [0, *accumulate(a.dim for a in live)]
    # the sum is constant between the weights of its summands
    pairs = []
    for w in sorted({w for a in live for w in a.weights}):
        vecs = [v << off for a, off in zip(live, offsets) for v in a.layer(w).basis.data]
        pairs.append((w, Subspace(mod.dim, BitMatrix(len(vecs), mod.dim, tuple(vecs)))))
    return FiltModule._of(mod, pairs)


@lru_cache(maxsize=_CACHE_SIZE)
def realize_sum(fs: FormalSum) -> FiltModule:
    """The standard model of fs, the direct sum of its labels in label order."""
    return _standard_model(fs.labels)


@lru_cache(maxsize=_CACHE_SIZE)
def realize(label: IndecLabel) -> FiltModule:
    """Canonical concrete model of an indecomposable label, as in realize_sum."""
    return _standard_model((label,))


def _standard_model(labels: tuple[IndecLabel, ...]) -> FiltModule:
    """The direct sum of labels in the given order, in closed form, uncached:
    realize and realize_sum each keep their own cache of it, so a realize
    miss fills no realize_sum slot.  sigma is block diagonal: 1 on each 1(m), the
    swap on each E(l, m).  With a the offset of a summand, the weight-w
    layer is spanned by the summand's coordinates when m >= w, and by
    e_a + e_{a+1} for an E(l, m) with m < w <= m + l.  These vectors have
    disjoint supports and come in the order of their lowest bits, so they
    are already the reduced echelon basis.  The layers change only at the
    weights m, m + 1 and m + l + 1 of the summands (m + 1 twice when l = 0)."""
    offsets = [0, *accumulate(lab.dim for lab in labels)]
    n = offsets[-1]
    sigma = []
    for lab, a in zip(labels, offsets):
        sigma += [1 << a] if lab.kind == UNIT else [2 << a, 1 << a]
    pairs = []
    for w in sorted({w for lab in labels for w in (lab.m, lab.m + 1, lab.m + lab.l + 1)}):
        vecs = []
        for lab, a in zip(labels, offsets):
            if lab.m >= w:
                vecs += [1 << a] if lab.kind == UNIT else [1 << a, 2 << a]
            elif lab.kind == REG and w <= lab.m + lab.l:
                vecs.append(3 << a)
        pairs.append((w, Subspace(n, BitMatrix(len(vecs), n, tuple(vecs)))))
    return FiltModule._of(C2Module(n, BitMatrix(n, n, tuple(sigma))), pairs)


def _tensor_layer(a: FiltModule, b: FiltModule, w: int) -> list[int]:
    """Spanning vectors of the weight-w layer of a (x) b: the sum over p of
    a.layer(p) (x) b.layer(w - p), in Kronecker coordinates.  a.layer(p) is
    constant up to each drop, the first reaching down past w_min, and
    b.layer(w - p) is largest at the drop, so the sum over drops is the same."""
    vecs: list[int] = []
    for top, lay in a.drops():
        lb = b.layer(w - top).basis.data
        if not lb:
            continue
        for u in lay.basis.data:
            # u (x) v: a copy of v at offset k * b.dim for each set bit k of u
            spread = _spread(u, 0, b.dim)
            vecs.extend([v * spread for v in lb])
    return vecs


def tensor(a: FiltModule, b: FiltModule) -> FiltModule:
    """Kronecker tensor with the convolved filtration."""
    if a.is_zero() or b.is_zero():
        return FiltModule.zero()
    mod = a.module.tensor(b.module)
    # a layer of b enters at w - top only at (interval top of a) + (weight of b)
    weights = sorted({top + v for top, _ in a.drops() for v in b.weights})
    return FiltModule._of(mod, [(w, Subspace.span(mod.dim, _tensor_layer(a, b, w))) for w in weights])


def dual(a: FiltModule) -> FiltModule:
    """Dual module; weight-n layer is the annihilator of the weight-(-n+1)
    layer, so a's interval with top weight t starts the dual's at 1 - t,
    and the dual is full up to -w_max."""
    if a.is_zero():
        return a
    return FiltModule._of(a.module.dual(), [(1 - top, lay.perp()) for top, lay in reversed(a.drops())])


def gr(a: FiltModule) -> list[tuple[int, C2Module]]:
    """Graded pieces: list of (weight, layer mod next layer), nonzero ones
    only, which are those at the top weight of each stored interval."""
    return [(top, quotient_module(a.module, lay, a.layer(top + 1))[0]) for top, lay in a.drops()]


# ---------------------------------------------------------------------------
# Morphisms and hom spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltMorphism:
    source: FiltModule
    target: FiltModule
    matrix: BitMatrix

    def is_valid(self) -> bool:
        """True iff the matrix commutes with sigma and maps each weight layer
        of the source into the same layer of the target.  A source layer is
        constant on its stored interval and the target layers decrease, so
        it is checked against the target layer at the interval's top."""
        m = self.matrix
        lhs = m.mul(self.source.module.sigma)
        rhs = self.target.module.sigma.mul(m)
        if lhs != rhs:
            return False
        for top, lay in self.source.drops():
            tgt = self.target.layer(top)
            if not tgt.is_full() and not tgt.contains_all(lay.basis.mul(m.transposed).data):
                return False
        return True


def morphism_equations(system: LinearSystem, x: int, source: FiltModule, target: FiltModule) -> None:
    """Constrain the block x (target.dim x source.dim) of system to the
    filtered equivariant maps source -> target: one equation per stored
    source interval, at its top, as in FiltMorphism.is_valid.  The other
    weights of the interval give rows in the span of these, so the row
    space, and the kernel, do not change."""
    if source.is_zero() or target.is_zero():
        return
    system.constrain(x, equivariance_rows(target.module, source.module))
    # the annihilator of the target layer kills the image of the source layer
    for top, lay in source.drops():
        if top > target.w_min:
            system.equation([(target.layer(top).perp().basis, x, lay.basis.data)])


def beta_map(a: FiltModule) -> FiltMorphism:
    """The canonical weight-shift map a -> a(1), identity on the underlying module."""
    return FiltMorphism(a, a.twist(1), BitMatrix.identity(a.dim))


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    sum: FormalSum
    iso: FiltMorphism  # realize_sum(sum) -> original module
    inv: FiltMorphism  # original module -> realize_sum(sum)

    def validate(self) -> bool:
        """True iff iso is a filtered isomorphism with inverse inv.

        Checked: inv runs from a = iso.target back to model = iso.source,
        iso is filtered and equivariant, inv.iso and iso.inv are identities,
        and model and a have the same stored weights and equal layer
        dimensions index by index.  The matrix of inv needs no check of its
        own.  iso is filtered and injective, so iso(V_w(model)) lies in
        V_w(a), with equality iff the dimensions are equal; then
        inv(V_w(a)) = V_w(model).  inv is equivariant as the inverse of an
        equivariant map.  Stored weights are canonical (strict drops,
        tight), so comparing the stored tuples compares dim V_w at every w.
        Conversely a filtered inv gives equal dimensions at every w, so for
        inv from a to model the verdict is that of checking both maps."""
        model, a = self.iso.source, self.iso.target
        if self.inv.source != a or self.inv.target != model:
            return False
        if model.weights != a.weights or any(p.dim != q.dim for p, q in zip(model.layers, a.layers)):
            return False
        return (self.iso.is_valid()
                and self.inv.matrix.mul(self.iso.matrix).is_identity()
                and self.iso.matrix.mul(self.inv.matrix).is_identity())


def decompose(a: FiltModule) -> Decomposition:
    """Split a into indecomposables, with a certified isomorphism.

    One persistence reduction of N = 1 + sigma, which has N.N = 0 and keeps
    each layer V_w (Barannikov, Adv. Soviet Math. 21, 1994; Zomorodian and
    Carlsson, "Computing persistent homology", DCG 33, 2005).  Down the drop
    weights w (elsewhere V_w = V_{w+1} offers nothing new), N.v and then v
    for v in a basis of V_w are kept at weight w when independent of the
    vectors kept before, which span V_{w+1}: so each has weight w, and N is
    strictly upper triangular.  The residue modulo V_{w+1} is linear with
    kernel V_{w+1}, so a candidate is independent of the kept vectors iff its
    residue is independent of the residues kept at w: one reduce_all per drop.
    With the kept vectors as the rows of V, u has coordinates u.V^-1, so N
    has the columns V.N^T.V^-1.  Reduced by lowest ones, with column additions
    applied to the vectors e_j, a column j with low i spans E(wt(i) - wt(j),
    wt(j)) by (e_j, sigma.e_j), and a zero column that is nobody's low spans 1(wt(j)) by e_j.
    """
    sigma_t = a.module.sigma.transposed
    norm_t = sigma_t.add(BitMatrix.identity(a.dim))
    vecs, weights = [], []
    for w, lay in reversed(a.drops()):
        cands, tops = lay.basis.mul(norm_t).data + lay.basis.data, {}
        for v, r in zip(cands, a.layer(w + 1).reduce_all(cands)):
            if insert_independent(tops, r):
                vecs.append(v)
                weights.append(w)
    basis = BitMatrix(len(vecs), a.dim, tuple(vecs))
    reduced = list(basis.mul(norm_t).mul(basis.inverse()).data)  # the columns of N
    owner: dict[int, int] = {}  # low of a reduced nonzero column -> that column
    regular: list[tuple[IndecLabel, int]] = []
    for j, c in enumerate(reduced):
        if c >> j:
            raise MathEngineError("norm is not strictly triangular in the adapted basis")
        while c and (k := owner.get(c.bit_length() - 1)) is not None:
            c, vecs[j] = c ^ reduced[k], vecs[j] ^ vecs[k]
        reduced[j] = c
        if c:
            owner[c.bit_length() - 1] = j
            regular.append((e_label(weights[c.bit_length() - 1] - weights[j], weights[j]), vecs[j]))
    images = BitMatrix(len(regular), a.dim, tuple(v for _, v in regular)).mul(sigma_t).data
    pieces = [(label, (v, s)) for (label, v), s in zip(regular, images)]
    pieces += [(unit_label(weights[j]), (vecs[j],))
               for j, c in enumerate(reduced) if not c and j not in owner]
    pieces.sort(key=lambda piece: piece[0])
    fs = FormalSum(tuple(label for label, _ in pieces))
    model = realize_sum(fs)
    if model.dim != a.dim:
        raise MathEngineError("decomposition dimension mismatch")
    cols = tuple(c for _, piece_cols in pieces for c in piece_cols)
    mat = BitMatrix(len(cols), a.dim, cols).transpose()
    iso = FiltMorphism(model, a, mat)
    inv_mat = mat.inverse()
    if inv_mat is None:
        raise MathEngineError("decomposition certificate is singular")
    inv = FiltMorphism(a, model, inv_mat)
    dec = Decomposition(fs, iso, inv)
    if not dec.validate():
        raise MathEngineError("decomposition certificate failed validation")
    return dec


def certify(a: FiltModule, fs: FormalSum) -> Decomposition:
    """decompose(a), with the identity as the certificate, validated the same
    way, when a is bit for bit the standard model realize_sum(fs)."""
    if a != realize_sum(fs):
        return decompose(a)
    ident = FiltMorphism(a, a, BitMatrix.identity(a.dim))
    dec = Decomposition(fs, ident, ident)
    if not dec.validate():
        raise MathEngineError("identity certificate failed validation")
    return dec


# ---------------------------------------------------------------------------
# Exact structure and projectivity
# ---------------------------------------------------------------------------


def gr_map(f: FiltMorphism, w: int) -> BitMatrix:
    """Weight-w component of the graded map induced by f."""
    _, s_reps = f.source.graded(w)
    _, t_reps = f.target.graded(w)
    return induced_map(s_reps, t_reps, f.target.layer(w + 1), f.matrix)


def is_admissible(f: FiltMorphism, g: FiltMorphism) -> bool:
    """True iff g.f = 0 and the graded sequence splits equivariantly in
    every weight; this is the admissibility test for the exact structure.
    ValueError unless f and g are composable filtered morphisms."""
    if f.target != g.source or not (f.is_valid() and g.is_valid()):
        raise ValueError("not a composable pair of filtered morphisms")
    if not g.matrix.mul(f.matrix).is_zero():
        return False
    a, b, c = f.source, f.target, g.target
    # elsewhere all three graded pieces are zero
    for w in sorted({w for m in (a, b, c) for w, _ in m.drops()}):
        # each graded piece once, its representatives shared by both maps
        (amod, ar), (bmod, br), (cmod, cr) = (m.graded(w) for m in (a, b, c))
        gf = induced_map(ar, br, b.layer(w + 1), f.matrix)
        gg = induced_map(br, cr, c.layer(w + 1), g.matrix)
        if not _split_exact_equivariant(amod, bmod, cmod, gf, gg):
            return False
    return True


def _split_exact_equivariant(amod, bmod, cmod, gf: BitMatrix, gg: BitMatrix) -> bool:
    """True iff the equivariant sequence A -gf-> B -gg-> C is short exact
    and splits equivariantly.  It is exact iff gf is injective, gg is
    surjective, gg.gf = 0 and dim B = dim A + dim C (then im gf = ker gg by
    counting).  An exact sequence of finitely generated modules over a
    commutative Noetherian ring, here kC2 = k[t]/t^2 with t = 1 + sigma,
    splits iff B is isomorphic to A + C (Miyata, J. Math. Kyoto Univ. 7,
    1967), which by Krull-Schmidt holds iff the (trivial, free) split of B
    is the sum of theirs."""
    if bmod.dim != amod.dim + cmod.dim or gf.rank() != amod.dim or gg.rank() != cmod.dim:
        return False
    if not gg.mul(gf).is_zero():
        return False
    (a1, a2), (c1, c2) = amod.module_split(), cmod.module_split()
    return bmod.module_split() == (a1 + c1, a2 + c2)


def is_projective(a: FiltModule) -> bool:
    """Projective-injectives are exactly the sums of E(0, i) and E(1, j)."""
    dec = decompose(a)
    return all(lab.kind == REG and lab.l <= 1 for lab in dec.sum.labels)
