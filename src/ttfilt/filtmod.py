"""Filtered modules over the order-2 group algebra in characteristic 2.

A filtered module is an ambient C2Module together with a finite decreasing
chain of invariant subspaces indexed by integer weights.  This module
implements the tensor category structure (tensor, dual, twist), the weight
functors (gr, fgt, weight parts), Krull-Schmidt decomposition with explicit
isomorphism certificates, and the exactness/projectivity tests that the
derived-category layer builds on.  The decomposition is one persistence
reduction of N = 1 + sigma on a basis adapted to the weight layers V_w: the
summands and a basis adapted to them are read off its pairing, with no
search over candidate summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True, order=True)
class IndecLabel:
    """Indecomposable label: the trivial line 1(n) or the regular module E(l, m)."""

    kind: str
    l: int
    m: int

    def __post_init__(self):
        if self.kind not in (UNIT, REG):
            raise ValueError("unknown label kind")
        if self.kind == UNIT and self.l != 0:
            raise ValueError("unit labels carry no length")
        if self.l < 0:
            raise ValueError("length must be nonnegative")

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

    @staticmethod
    def from_iter(labels) -> "FormalSum":
        return FormalSum(tuple(sorted(labels)))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(tuple(sorted(self.labels + other.labels)))

    def is_zero(self) -> bool:
        return not self.labels

    def text(self) -> str:
        if not self.labels:
            return "0"
        return " + ".join(lab.text() for lab in self.labels)


# ---------------------------------------------------------------------------
# Filtered modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltModule:
    """C2-module with a decreasing chain of invariant subspaces.

    layers[i] is the subspace of weight >= w_min + i, for i up to
    w_max - w_min + 1; the first layer is the full space and the last is
    zero.  Weight ranges are stored tight at both ends, so equal objects
    have bit-identical representations.  The zero module has the empty
    weight range (w_min=0, w_max=-1) by convention.
    """

    module: C2Module
    w_min: int
    w_max: int
    layers: tuple[Subspace, ...]

    def __post_init__(self):
        n = self.module.dim
        if len(self.layers) != self.w_max - self.w_min + 2:
            raise ValueError("layer count mismatch")
        if not self.layers[0].is_full():
            raise ValueError("bottom layer must be the whole space")
        if not self.layers[-1].is_zero():
            raise ValueError("top layer must vanish")
        prev = None
        for lay in self.layers:
            if lay.ambient != n:
                raise ValueError("layer ambient mismatch")
            if prev is not None and not prev.contains_space(lay):
                raise ValueError("layers must decrease")
            for v in lay.basis.data:
                if not lay.contains(self.module.sigma.apply(v)):
                    raise ValueError("layer is not sigma-stable")
            prev = lay
        if n > 0 and self.layers[-2].is_zero() and len(self.layers) > 1 and self.w_max >= self.w_min:
            if len(self.layers) > 2:
                raise ValueError("weight range not tight at top")
        if n > 0 and len(self.layers) > 2 and self.layers[1].is_full():
            raise ValueError("weight range not tight at bottom")

    @staticmethod
    def build(module: C2Module, w_min: int, layers: list[Subspace]) -> "FiltModule":
        """Normalize to tight weight range; layers cover w_min..w_min+len-1
        and are implicitly full below and zero above."""
        if module.dim == 0:
            return FiltModule.zero()
        layers = list(layers)
        if not layers or not layers[0].is_full():
            layers.insert(0, Subspace.full(module.dim))
            w_min -= 1
        if not layers[-1].is_zero():
            layers.append(Subspace.zero(module.dim))
        while len(layers) > 2 and layers[1].is_full():
            layers.pop(0)
            w_min += 1
        while len(layers) > 2 and layers[-2].is_zero():
            layers.pop()
        w_max = w_min + len(layers) - 2
        return FiltModule(module, w_min, w_max, tuple(layers))

    @staticmethod
    def zero() -> "FiltModule":
        return FiltModule(C2Module.trivial(0), 0, -1, (Subspace.zero(0),))

    @property
    def dim(self) -> int:
        return self.module.dim

    def is_zero(self) -> bool:
        return self.dim == 0

    def layer(self, w: int) -> Subspace:
        if w < self.w_min:
            return Subspace.full(self.dim)
        if w > self.w_max:
            return Subspace.zero(self.dim)
        return self.layers[w - self.w_min]

    def graded(self, w: int) -> tuple[C2Module, BitMatrix]:
        """The weight-w graded piece layer(w) / layer(w + 1), with the coset
        representatives of `quotient_module`."""
        return quotient_module(self.module, self.layer(w), self.layer(w + 1))

    def is_effective(self) -> bool:
        return self.is_zero() or self.layer(0).is_full()

    def twist(self, r: int) -> "FiltModule":
        if self.is_zero() or r == 0:
            return self
        return FiltModule(self.module, self.w_min + r, self.w_max + r, self.layers)


def fgt(a: FiltModule) -> C2Module:
    return a.module


def pwz_module(m: C2Module) -> FiltModule:
    """The module placed in pure weight zero."""
    if m.dim == 0:
        return FiltModule.zero()
    return FiltModule(m, 0, 0, (Subspace.full(m.dim), Subspace.zero(m.dim)))


# Entries kept by each of the realize and realize_sum caches.
_CACHE_SIZE = 1024


@lru_cache(maxsize=_CACHE_SIZE)
def realize(label: IndecLabel) -> FiltModule:
    """Canonical concrete model of an indecomposable label."""
    if label.kind == UNIT:
        return pwz_module(C2Module.trivial(1)).twist(label.m)
    mod = C2Module.free(1)
    if label.l == 0:
        return pwz_module(mod).twist(label.m)
    fixed = Subspace.span(2, (0b11,))
    layers = [Subspace.full(2)] + [fixed] * label.l + [Subspace.zero(2)]
    return FiltModule(mod, label.m, label.m + label.l, tuple(layers))


def direct_sum(*mods: FiltModule) -> FiltModule:
    """Direct sum of any number of filtered modules, in the given order."""
    live = [a for a in mods if not a.is_zero()]
    if len(live) <= 1:
        # one of the inputs when it is the sum, so no new object is built
        return (live or mods or [FiltModule.zero()])[0]
    mod = C2Module(sum(a.dim for a in live), BitMatrix.block_diag(a.module.sigma for a in live))
    w_min = min(a.w_min for a in live)
    w_max = max(a.w_max for a in live)
    layers = []
    for w in range(w_min, w_max + 2):
        vecs, offset = [], 0
        for a in live:
            vecs.extend(v << offset for v in a.layer(w).basis.data)
            offset += a.dim
        layers.append(Subspace.span(mod.dim, vecs))
    return FiltModule(mod, w_min, w_max, tuple(layers))


@lru_cache(maxsize=_CACHE_SIZE)
def realize_sum(fs: FormalSum) -> FiltModule:
    return direct_sum(*map(realize, fs.labels))


def _tensor_layer(a: FiltModule, b: FiltModule, w: int) -> list[int]:
    """Spanning vectors of the weight-w layer of a (x) b: the sum over p of
    a.layer(p) (x) b.layer(w - p), in Kronecker coordinates."""
    vecs: list[int] = []
    for p in range(a.w_min, a.w_max + 1):
        lb = b.layer(w - p).basis.data
        if not lb:
            continue
        for u in a.layer(p).basis.data:
            # u (x) v: a copy of v at offset k * b.dim for each set bit k of u
            spread = _spread(u, 0, b.dim)
            vecs.extend([v * spread for v in lb])
    return vecs


def tensor(a: FiltModule, b: FiltModule) -> FiltModule:
    """Kronecker tensor with the convolved filtration."""
    if a.is_zero() or b.is_zero():
        return FiltModule.zero()
    mod = a.module.tensor(b.module)
    w_min = a.w_min + b.w_min
    w_max = a.w_max + b.w_max
    layers = [Subspace.span(mod.dim, _tensor_layer(a, b, w)) for w in range(w_min, w_max + 2)]
    return FiltModule.build(mod, w_min, layers)


def dual(a: FiltModule) -> FiltModule:
    """Dual module; weight-n layer is the annihilator of the weight-(-n+1) layer."""
    if a.is_zero():
        return a
    mod = a.module.dual()
    w_min, w_max = -a.w_max, -a.w_min
    layers = [a.layer(-w + 1).perp() for w in range(w_min, w_max + 2)]
    return FiltModule.build(mod, w_min, layers)


def _weight_part_with_basis(a: FiltModule, m: int) -> tuple[C2Module, BitMatrix]:
    lay = a.layer(m)
    return quotient_module(a.module, lay, Subspace.zero(a.dim))


def weight_part(a: FiltModule, m: int) -> C2Module:
    """The weight->=m subspace of a as a module in its own right."""
    return _weight_part_with_basis(a, m)[0]


def weight_ge(a: FiltModule, m: int) -> FiltModule:
    """Filtered submodule of weight at least m (weights below m filled up)."""
    mod, reps = _weight_part_with_basis(a, m)
    if mod.dim == 0:
        return FiltModule.zero()
    inject = reps.transpose()
    layers = []
    top = max(a.w_max, m)
    for w in range(m, top + 2):
        cut = a.layer(w).perp().basis.mul(inject)
        layers.append(Subspace.span(mod.dim, cut.kernel().data))
    return FiltModule.build(mod, m, layers)


def gr(a: FiltModule) -> list[tuple[int, C2Module]]:
    """Graded pieces: list of (weight, layer mod next layer), nonzero ones only."""
    out = []
    for w in range(a.w_min, a.w_max + 1):
        piece, _ = a.graded(w)
        if piece.dim > 0:
            out.append((w, piece))
    return out


def gr_dims(a: FiltModule) -> dict[int, int]:
    return {w: p.dim for w, p in gr(a)}


# ---------------------------------------------------------------------------
# Morphisms and hom spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiltMorphism:
    source: FiltModule
    target: FiltModule
    matrix: BitMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.dim or self.matrix.cols != self.source.dim:
            raise ValueError("morphism shape mismatch")

    def is_valid(self) -> bool:
        """True iff the matrix commutes with sigma and maps each weight layer
        of the source into the same layer of the target."""
        m = self.matrix
        lhs = m.mul(self.source.module.sigma)
        rhs = self.target.module.sigma.mul(m)
        if lhs != rhs:
            return False
        for w in range(self.source.w_min, self.source.w_max + 1):
            tgt = self.target.layer(w)
            for v in self.source.layer(w).basis.data:
                if not tgt.contains(m.apply(v)):
                    return False
        return True


def morphism_equations(system: LinearSystem, x: int, source: FiltModule, target: FiltModule) -> None:
    """Constrain the block x (target.dim x source.dim) of system to the
    filtered equivariant maps source -> target."""
    if source.is_zero() or target.is_zero():
        return
    system.constrain(x, equivariance_rows(target.module, source.module))
    # the annihilator of the target layer kills the image of the source layer
    for w in range(target.w_min + 1, source.w_max + 1):
        system.equation([(target.layer(w).perp().basis, x, source.layer(w).basis.data)])


def hom_basis(source: FiltModule, target: FiltModule) -> list[FiltMorphism]:
    """Basis of the space of filtration-preserving equivariant maps."""
    system = LinearSystem()
    x = system.block(target.dim, source.dim)
    morphism_equations(system, x, source, target)
    return [FiltMorphism(source, target, system.matrix(x, v)) for v in system.kernel()]


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
        if not self.iso.is_valid() or not self.inv.is_valid():
            return False
        return (self.inv.matrix.mul(self.iso.matrix).is_identity()
                and self.iso.matrix.mul(self.inv.matrix).is_identity())


def decompose(a: FiltModule) -> Decomposition:
    """Split a into indecomposables, with a certified isomorphism.

    One persistence reduction of N = 1 + sigma, which has N.N = 0 and keeps
    each layer V_w (Barannikov, Adv. Soviet Math. 21, 1994; Zomorodian and
    Carlsson, "Computing persistent homology", DCG 33, 2005).  Down from the
    top weight, N.v and then v for v in a basis of V_w are kept at weight w
    when independent of the vectors kept before, which span V_{w+1}: so each
    has weight w, and N is strictly upper triangular.  Reduced by lowest
    ones, with column additions applied to the vectors e_j, a column j with
    low i spans E(wt(i) - wt(j), wt(j)) by (e_j, sigma.e_j), and a zero
    column that is nobody's low spans 1(wt(j)) by e_j.
    """
    norm = a.module.norm()
    vecs, weights, tops = [], [], {}
    for w in range(a.w_max, a.w_min - 1, -1):
        layer = a.layer(w).basis.data
        if len(layer) > a.layer(w + 1).dim:  # else V_w = V_{w+1} offers nothing new
            for v in [norm.apply(u) for u in layer] + list(layer):
                if insert_independent(tops, v):
                    vecs.append(v)
                    weights.append(w)
    coords = BitMatrix(len(vecs), a.dim, tuple(vecs)).transpose().inverse()
    reduced = [coords.apply(norm.apply(v)) for v in vecs]  # the columns of N
    owner: dict[int, int] = {}  # low of a reduced nonzero column -> that column
    pieces: list[tuple[IndecLabel, tuple[int, ...]]] = []
    for j, c in enumerate(reduced):
        if c >> j:
            raise MathEngineError("norm is not strictly triangular in the adapted basis")
        while c and (k := owner.get(c.bit_length() - 1)) is not None:
            c, vecs[j] = c ^ reduced[k], vecs[j] ^ vecs[k]
        reduced[j] = c
        if c:
            owner[c.bit_length() - 1] = j
            pieces.append((e_label(weights[c.bit_length() - 1] - weights[j], weights[j]),
                           (vecs[j], a.module.sigma.apply(vecs[j]))))
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
    every weight; this is the admissibility test for the exact structure."""
    if f.target != g.source:
        raise ValueError("sequence does not compose")
    if not g.matrix.mul(f.matrix).is_zero():
        return False
    a, b, c = f.source, f.target, g.target
    weights = range(min(a.w_min, b.w_min, c.w_min), max(a.w_max, b.w_max, c.w_max) + 1)
    for w in weights:
        amod, bmod, cmod = (m.graded(w)[0] for m in (a, b, c))
        if not _split_exact_equivariant(amod, bmod, cmod, gr_map(f, w), gr_map(g, w)):
            return False
    return True


def _split_exact_equivariant(amod, bmod, cmod, gf: BitMatrix, gg: BitMatrix) -> bool:
    """Solve jointly for equivariant r: B->A, s: C->B with r.gf = 1,
    gg.s = 1 and gf.r + s.gg = 1."""
    da, db, dc = amod.dim, bmod.dim, cmod.dim
    if db != da + dc:
        return False
    system = LinearSystem()
    r = system.block(da, db)
    s = system.block(db, dc)
    system.constrain(r, equivariance_rows(amod, bmod))
    system.constrain(s, equivariance_rows(bmod, cmod))
    system.equation([(None, r, gf.transpose().data)], BitMatrix.identity(da))
    system.equation([(gg, s, None)], BitMatrix.identity(dc))
    system.equation([(gf, r, None), (None, s, gg.transpose().data)], BitMatrix.identity(db))
    return system.solve() is not None


def is_projective(a: FiltModule) -> bool:
    """Projective-injectives are exactly the sums of E(0, i) and E(1, j)."""
    dec = decompose(a)
    return all(lab.kind == REG and lab.l <= 1 for lab in dec.sum.labels)
