"""Bounded chain complexes over three cell categories.

Cell kinds: "filt" (filtered modules), "c2" (plain modules over the
order-2 group algebra), "f2" (plain vector spaces).  Differentials lower
the homological degree by one.  The coefficient field has characteristic
2, so every tensor construction is signless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .gf2 import BitMatrix, C2Module, LinearSystem, equivariance_rows
from .filtmod import (
    FiltModule,
    FiltMorphism,
    FormalSum,
    MathEngineError,
    decompose,
    direct_sum as filt_sum,
    dual as filt_dual,
    e_label,
    morphism_equations,
    realize,
    realize_sum,
    tensor as filt_tensor,
    unit_label,
)

FILT, C2, F2 = "filt", "c2", "f2"


# ---------------------------------------------------------------------------
# Cell category dispatch
# ---------------------------------------------------------------------------


def cell_dim(kind, obj) -> int:
    return obj if kind == F2 else obj.dim


# One zero object per cell kind, shared: cells are immutable.
_ZERO_CELLS = {F2: 0, C2: C2Module.trivial(0), FILT: FiltModule.zero()}


def cell_zero(kind):
    return _ZERO_CELLS[kind]


def cell_is_zero(kind, obj) -> bool:
    return cell_dim(kind, obj) == 0


def cell_sum(kind, *cells):
    if not cells:
        return cell_zero(kind)
    if kind == F2:
        return sum(cells)
    if kind == C2:
        return C2Module(sum(c.dim for c in cells), BitMatrix.block_diag(c.sigma for c in cells))
    return filt_sum(*cells)


def cell_tensor(kind, a, b):
    if kind == F2:
        return a * b
    if kind == C2:
        return a.tensor(b)
    return filt_tensor(a, b)


def cell_dual(kind, a):
    if kind == F2:
        return a
    if kind == C2:
        return a.dual()
    return filt_dual(a)


def _hom_block(system: LinearSystem, kind, source, target) -> int:
    """Allocate an unknown matrix source -> target in system, constrained
    to the morphisms of the cell category."""
    block = system.block(cell_dim(kind, target), cell_dim(kind, source))
    if kind == C2:
        system.constrain(block, equivariance_rows(target, source))
    elif kind == FILT:
        morphism_equations(system, block, source, target)
    return block


def cell_is_morphism(kind, source, target, m: BitMatrix) -> bool:
    if m.rows != cell_dim(kind, target) or m.cols != cell_dim(kind, source):
        return False
    if kind == F2:
        return True
    if kind == C2:
        return m.mul(source.sigma) == target.sigma.mul(m)
    return FiltMorphism(source, target, m).is_valid()


# ---------------------------------------------------------------------------
# Complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Complex:
    """Bounded chain complex; terms[i] lives in degree d_min + i and
    diffs[i] is the differential from degree d_min+i+1 down to d_min+i."""

    kind: str
    d_min: int
    terms: tuple
    diffs: tuple[BitMatrix, ...]

    @property
    def d_max(self) -> int:
        return self.d_min + len(self.terms) - 1

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> range:
        return range(self.d_min, self.d_max + 1)

    def term(self, n: int):
        if self.d_min <= n <= self.d_max:
            return self.terms[n - self.d_min]
        return cell_zero(self.kind)

    def dim(self, n: int) -> int:
        return cell_dim(self.kind, self.term(n))

    def total_dim(self) -> int:
        return sum(cell_dim(self.kind, t) for t in self.terms)

    def diff(self, n: int) -> BitMatrix:
        """Differential X_n -> X_{n-1}."""
        i = n - self.d_min - 1
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return BitMatrix.zero(self.dim(n - 1), self.dim(n))


def build_complex(kind: str, terms: dict, diffs: dict) -> Complex:
    """Assemble and normalize a complex from degree-indexed terms and maps,
    unchecked: validate_complex checks complexes from outside where they
    enter (shell.deserialize, samples.random_complex)."""
    live = {n for n, t in terms.items() if not cell_is_zero(kind, t)}
    if not live:
        return Complex(kind, 0, (), ())
    lo, hi = min(live), max(live)
    stray = [n for n, d in diffs.items() if not d.is_zero() and not lo < n <= hi]
    if stray:
        raise ValueError(f"differentials keyed outside the degree range: {stray}")
    term_list = [terms.get(n, cell_zero(kind)) for n in range(lo, hi + 1)]
    diff_list = []
    for n in range(lo + 1, hi + 1):
        d = diffs.get(n)
        if d is None:
            d = BitMatrix.zero(cell_dim(kind, term_list[n - 1 - lo]), cell_dim(kind, term_list[n - lo]))
        diff_list.append(d)
    return Complex(kind, lo, tuple(term_list), tuple(diff_list))


def validate_complex(x: Complex) -> None:
    """ValueError unless the differentials are cell morphisms of the right
    shape with d.d = 0.  The zero map out of the bottom degree always passes."""
    for n in x.degrees()[1:]:
        d = x.diff(n)
        if d.rows != x.dim(n - 1) or d.cols != x.dim(n):
            raise ValueError("differential shape mismatch")
        if not cell_is_morphism(x.kind, x.term(n), x.term(n - 1), d):
            raise ValueError(f"differential in degree {n} is not a morphism")
        if n + 1 <= x.d_max and not x.diff(n).mul(x.diff(n + 1)).is_zero():
            raise ValueError("d.d is nonzero")


def single(kind, obj, degree: int = 0) -> Complex:
    return build_complex(kind, {degree: obj}, {})


@dataclass(frozen=True)
class ChainMap:
    source: Complex
    target: Complex
    comps: tuple[tuple[int, BitMatrix], ...]  # sorted (degree, matrix), nonzero only

    @staticmethod
    def of(source: Complex, target: Complex, comps: dict[int, BitMatrix]) -> "ChainMap":
        clean = {n: m for n, m in comps.items() if not m.is_zero()}
        return ChainMap(source, target, tuple(sorted(clean.items())))

    def comp(self, n: int) -> BitMatrix:
        for d, m in self.comps:
            if d == n:
                return m
        return BitMatrix.zero(self.target.dim(n), self.source.dim(n))

    def validate(self) -> None:
        for n, m in self.comps:
            if m.rows != self.target.dim(n) or m.cols != self.source.dim(n):
                raise ValueError("chain map shape mismatch")
            if not cell_is_morphism(self.source.kind, self.source.term(n), self.target.term(n), m):
                raise ValueError("chain map component is not a morphism")
        for n in range(min(self.source.d_min, self.target.d_min),
                       max(self.source.d_max, self.target.d_max) + 2):
            lhs = self.target.diff(n).mul(self.comp(n))
            rhs = self.comp(n - 1).mul(self.source.diff(n))
            if lhs != rhs:
                raise ValueError("chain map does not commute with differentials")

    def is_zero(self) -> bool:
        return not self.comps

    def compose(self, first: "ChainMap") -> "ChainMap":
        comps = {}
        for n in set(d for d, _ in self.comps) | set(d for d, _ in first.comps):
            comps[n] = self.comp(n).mul(first.comp(n))
        return ChainMap.of(first.source, self.target, comps)

    def add(self, other: "ChainMap") -> "ChainMap":
        comps = {}
        for n in set(d for d, _ in self.comps) | set(d for d, _ in other.comps):
            comps[n] = self.comp(n).add(other.comp(n))
        return ChainMap.of(self.source, self.target, comps)

    @staticmethod
    def identity(x: Complex) -> "ChainMap":
        return ChainMap.of(x, x, {n: BitMatrix.identity(x.dim(n)) for n in x.degrees()})


@dataclass(frozen=True)
class Homotopy:
    """Degree +1 collection h with d h + h d equal to the certified map."""

    source: Complex
    target: Complex
    comps: tuple[tuple[int, BitMatrix], ...]

    def comp(self, n: int) -> BitMatrix:
        for d, m in self.comps:
            if d == n:
                return m
        return BitMatrix.zero(self.target.dim(n + 1), self.source.dim(n))

    def certifies(self, f: ChainMap) -> bool:
        for n in range(min(self.source.d_min, self.target.d_min) - 1,
                       max(self.source.d_max, self.target.d_max) + 2):
            got = self.target.diff(n + 1).mul(self.comp(n)).add(self.comp(n - 1).mul(self.source.diff(n)))
            if got != f.comp(n):
                return False
        return True


# ---------------------------------------------------------------------------
# Standard constructions
# ---------------------------------------------------------------------------


def shift(x: Complex, k: int) -> Complex:
    """X[k] with X[k]_n = X_{n-k}; no signs in characteristic 2."""
    if x.is_zero() or k == 0:
        return x
    return Complex(x.kind, x.d_min + k, x.terms, x.diffs)


def direct_sum_complex(*xs: Complex) -> Complex:
    """Direct sum in the given order; with at most one nonzero summand it is
    that summand, or the last argument when all are zero."""
    kind = xs[-1].kind
    if any(x.kind != kind for x in xs):
        raise ValueError("cell-kind mismatch")
    live = [x for x in xs if not x.is_zero()]
    if len(live) <= 1:
        return (live or xs)[-1]
    lo, hi = min(x.d_min for x in live), max(x.d_max for x in live)
    terms = {n: cell_sum(kind, *(x.term(n) for x in live)) for n in range(lo, hi + 1)}
    diffs = {n: BitMatrix.block_diag([x.diff(n) for x in live]) for n in range(lo + 1, hi + 1)}
    return build_complex(kind, terms, diffs)


def cone(f: ChainMap) -> Complex:
    """Mapping cone: degree n term is Y_n + X_{n-1}."""
    x, y = f.source, f.target
    if x.kind != y.kind:
        raise ValueError("cell-kind mismatch")
    if x.is_zero():
        return y
    if y.is_zero():
        return shift(x, 1)
    lo = min(y.d_min, x.d_min + 1)
    hi = max(y.d_max, x.d_max + 1)
    terms = {n: cell_sum(x.kind, y.term(n), x.term(n - 1)) for n in range(lo, hi + 1)}
    # d_n = [[d_y, f_{n-1}], [0, d_x]] from Y_n + X_{n-1} to Y_{n-1} + X_{n-2}
    diffs = {n: BitMatrix.from_blocks(y.dim(n - 1) + x.dim(n - 2), y.dim(n) + x.dim(n - 1),
                                      [(0, 0, y.diff(n)), (0, y.dim(n), f.comp(n - 1)),
                                       (y.dim(n - 1), y.dim(n), x.diff(n - 1))])
             for n in range(lo + 1, hi + 1)}
    return build_complex(x.kind, terms, diffs)


def dual_complex(x: Complex) -> Complex:
    terms = {-n: cell_dual(x.kind, x.term(n)) for n in x.degrees()}
    diffs = {}
    for n in x.degrees():
        if n + 1 <= x.d_max:
            # dual of d: X_{n+1} -> X_n gives the differential into degree -(n+1)
            diffs[-n] = x.diff(n + 1).transpose()
    return build_complex(x.kind, terms, diffs)


def tensor_layout(x: Complex, y: Complex) -> dict[int, tuple[int, list[tuple[int, int, int]]]]:
    """The summands of x (x) y from one pass over the pairs of nonzero terms:
    per degree n with a pair, (dim, [(p, q, offset), ...]) with one summand per
    pair x_p, y_q, p + q = n, ordered by p.  The degrees come unsorted."""
    dims, pairs = {}, {}
    for p, a in zip(x.degrees(), x.terms):
        if da := cell_dim(x.kind, a):
            for q, b in zip(y.degrees(), y.terms):
                if db := cell_dim(y.kind, b):
                    off = dims.get(p + q, 0)
                    pairs.setdefault(p + q, []).append((p, q, off))
                    dims[p + q] = off + da * db
    return {n: (dims[n], summands) for n, summands in pairs.items()}


def _tensor_diff(x: Complex, y: Complex, layout: dict, n: int, krons: Optional[dict] = None) -> BitMatrix:
    """Differential of x (x) y out of degree n, in the summand order and shape of
    layout = tensor_layout(x, y): d_x (x) 1 + 1 (x) d_y on each pair of terms.
    In degree n - 1 the pairs (p - 1, q) and (p, q - 1) are fixed by their first index.
    krons keeps the Kronecker blocks of one product, which recur along a resolution."""
    cols, src = layout.get(n, (0, ()))
    rows, tgt = layout.get(n - 1, (0, ()))
    tgt_off = {p: off for p, _, off in tgt}
    krons = {} if krons is None else krons
    def kron(d: BitMatrix, k: int, left: bool) -> BitMatrix:  # d (x) 1_k or 1_k (x) d
        if (key := (d, k, left)) not in krons:
            krons[key] = d.kron(BitMatrix.identity(k)) if left else BitMatrix.identity(k).kron(d)
        return krons[key]
    blocks = []
    for p, q, off in src:
        if p - 1 in tgt_off:
            blocks.append((tgt_off[p - 1], off, kron(x.diff(p), y.dim(q), True)))
        if p in tgt_off:
            blocks.append((tgt_off[p], off, kron(y.diff(q), x.dim(p), False)))
    return BitMatrix.from_blocks(rows, cols, blocks)


def tensor_complex(x: Complex, y: Complex) -> Complex:
    if x.kind != y.kind:
        raise ValueError("cell-kind mismatch")
    kind = x.kind
    layout = tensor_layout(x, y)
    terms = {n: cell_sum(kind, *(cell_tensor(kind, x.term(p), y.term(q)) for p, q, _ in summands))
             for n, (_, summands) in layout.items()}
    krons: dict = {}  # the Kronecker blocks of this product, shared by its degrees
    diffs = {n: _tensor_diff(x, y, layout, n, krons) for n in layout if n - 1 in layout}
    # d (x) 1 + 1 (x) d of two valid complexes is a differential of morphisms
    return build_complex(kind, terms, diffs)


def tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    """Tensor product of chain maps (signless): in degree n the block
    diagonal of f_p (x) g_{n-p}; a pair with a zero term gives an empty block."""
    src = tensor_complex(f.source, g.source)
    tgt = tensor_complex(f.target, g.target)
    ps = range(min(f.source.d_min, f.target.d_min), max(f.source.d_max, f.target.d_max) + 1)
    comps = {n: BitMatrix.block_diag([f.comp(p).kron(g.comp(n - p)) for p in ps]) for n in src.degrees()}
    return ChainMap.of(src, tgt, comps)


def twist_complex(x: Complex, r: int) -> Complex:
    if x.kind != FILT:
        raise ValueError("twist applies to filtered complexes")
    return Complex(FILT, x.d_min, tuple(t.twist(r) for t in x.terms), x.diffs)


# ---------------------------------------------------------------------------
# Homotopy solving
# ---------------------------------------------------------------------------


def is_nullhomotopic(f: ChainMap) -> Optional[Homotopy]:
    """Solve d h + h d = f as one global linear system over the cell homs:
    unknown cell morphisms h_n: x_n -> y_{n+1}, one block each, subject to
    d_y h_n + h_{n-1} d_x = f_n in every degree n."""
    x, y = f.source, f.target
    degs = range(min(x.d_min, y.d_min) - 1, max(x.d_max, y.d_max) + 2)
    system = LinearSystem()
    blocks = {n: _hom_block(system, x.kind, x.term(n), y.term(n + 1)) for n in degs}
    for n in range(degs.start, degs.stop + 1):
        terms = [(y.diff(n + 1), blocks[n], None)] if n in blocks else []
        if n - 1 in blocks:
            terms.append((None, blocks[n - 1], x.diff(n).transpose().data))
        system.equation(terms, f.comp(n))
    sol = system.solve()
    if sol is None:
        return None
    comps = ((n, system.matrix(b, sol)) for n, b in blocks.items())
    h = Homotopy(x, y, tuple((n, m) for n, m in comps if not m.is_zero()))
    if not h.certifies(f):
        raise MathEngineError("homotopy solution failed certification")
    return h


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalForm:
    complex: Complex
    incl: ChainMap  # minimal -> original, split by proj
    proj: ChainMap  # original -> minimal; proj . incl = id exactly
    labels: tuple[tuple[int, tuple], ...]  # (degree, summand labels)


def _split_term(kind, obj):
    """Standard-form presentation of one term: (labels, u, u_inv) with
    u : _rebuild_term(kind, labels) -> obj an isomorphism."""
    if kind == F2:
        ident = BitMatrix.identity(obj)
        return ("k",) * obj, ident, ident
    if kind == C2:
        a, b, u, u_inv = obj.standard_split()
        return ("k",) * a + ("kc2",) * b, u, u_inv
    dec = decompose(obj)
    return dec.sum.labels, dec.iso.matrix, dec.inv.matrix


def _label_dim(kind, lab) -> int:
    if kind == F2:
        return 1
    if kind == C2:
        return 1 if lab == "k" else 2
    return lab.dim


def _offsets(kind, labels) -> list[int]:
    return [0, *accumulate(_label_dim(kind, lab) for lab in labels)][:-1]


def _rebuild_term(kind, labels):
    if kind == F2:
        return len(labels)
    if kind == C2:
        a = sum(1 for lab in labels if lab == "k")
        b = sum(1 for lab in labels if lab == "kc2")
        return C2Module.standard(a, b)
    return realize_sum(FormalSum(tuple(labels)))


def minimize(x: Complex) -> MinimalForm:
    """Eliminate unit differential entries between matching indecomposables.

    Returns a homotopy-equivalent complex with no such entries plus chain
    maps i, p with p.i = id on the minimal form; i.p is homotopic to the
    identity.  Unit entries are eliminated in one pass over the degrees,
    lowest first, and within a degree in lexicographic (target, source)
    summand order until none is left, so the output is deterministic.  One
    pass suffices: an elimination at n changes d_n and only drops rows of
    d_{n+1} and columns of d_{n-1}, which removes blocks and creates no unit,
    so a degree left unit-free stays so.

    Each elimination is the Gaussian reduction of a based complex
    (Skoldberg, Trans. AMS 358, 2006), in place: for the unit block a in
    d_n = [[a, b], [c, e]], d_n becomes the Schur complement e + c.a^-1.b,
    i_n becomes i_n[:, other] + i_n[:, a].a^-1.b, p_{n-1} becomes
    p_{n-1}[other, :] + c.a^-1.p_{n-1}[a, :], and d_{n+1}, d_{n-1},
    i_{n-1} and p_n only lose the rows or columns of the eliminated pair.
    In standard coordinates a unit block is 1 or sigma, so a^-1 = a.  It lies
    on contiguous rows and columns, so each block comes from BitMatrix.split.
    """
    kind = x.kind
    labels: dict[int, list] = {}
    incl_comps: dict[int, BitMatrix] = {}
    proj_comps: dict[int, BitMatrix] = {}
    diffs: dict[int, BitMatrix] = {}
    for n in x.degrees():
        labs, incl_comps[n], proj_comps[n] = _split_term(kind, x.term(n))
        labels[n] = list(labs)
    for n in x.degrees():
        if n > x.d_min:
            diffs[n] = proj_comps[n - 1].mul(x.diff(n)).mul(incl_comps[n])

    def find_unit_at(n):
        # the block between equal labels is [a] or the equivariant [[a, b], [b, a]],
        # a unit iff its first row is (1, 0) or (0, 1): its label indices, rows and columns
        d = diffs[n]
        labs_t, labs_s = labels[n - 1], labels[n]
        offs_t, offs_s = _offsets(kind, labs_t), _offsets(kind, labs_s)
        for i, lt in enumerate(labs_t):
            dim = _label_dim(kind, lt)
            row, mask = d.data[offs_t[i]], (1 << dim) - 1
            for j, ls in enumerate(labs_s):
                if lt == ls and (row >> offs_s[j]) & mask in (1, 2):
                    return i, j, range(offs_t[i], offs_t[i] + dim), range(offs_s[j], offs_s[j] + dim)
        return None

    for n in sorted(diffs):
        while (hit := find_unit_at(n)) is not None:
            i, j, t, s = hit
            # d_n = [[a, b], [c, e]], the unit block a at rows t and columns s
            a, b, c, e = diffs[n].split(t, s)
            if not a.mul(a).is_identity():
                raise MathEngineError("elimination failed to isolate the unit block")
            if n + 1 in diffs:  # rows t of d_n.d_{n+1} vanish; d_{n+1} keeps the other rows
                _, into_s, _, diffs[n + 1] = diffs[n + 1].split(s, range(0))
                if not a.mul(into_s).add(b.mul(diffs[n + 1])).is_zero():
                    raise MathEngineError("incoming differential leaks into eliminated summand")
            if n - 1 in diffs:  # columns s of d_{n-1}.d_n vanish; d_{n-1} keeps the other columns
                _, _, from_t, diffs[n - 1] = diffs[n - 1].split(range(0), t)
                if not from_t.mul(a).add(diffs[n - 1].mul(c)).is_zero():
                    raise MathEngineError("outgoing differential leaks from eliminated summand")
            ab, ca = a.mul(b), c.mul(a)
            diffs[n] = e.add(c.mul(ab))
            _, _, incl_s, incl_rest = incl_comps[n].split(range(0), s)
            incl_comps[n] = incl_rest.add(incl_s.mul(ab))
            incl_comps[n - 1] = incl_comps[n - 1].split(range(0), t)[3]
            proj_comps[n] = proj_comps[n].split(s, range(0))[3]
            _, proj_t, _, proj_rest = proj_comps[n - 1].split(t, range(0))
            proj_comps[n - 1] = proj_rest.add(ca.mul(proj_t))
            del labels[n][j]
            del labels[n - 1][i]
            # zero-dimensional terms keep zero-size matrices; build_complex trims ends

    terms = {n: _rebuild_term(kind, labs) for n, labs in labels.items()}
    live = {n: t for n, t in terms.items() if not cell_is_zero(kind, t)}
    mini = build_complex(kind, live, {n: d for n, d in diffs.items() if d.rows and d.cols})
    incl = ChainMap.of(mini, x, {n: incl_comps[n] for n in mini.degrees()})
    proj = ChainMap.of(x, mini, {n: proj_comps[n] for n in mini.degrees()})
    labs = tuple(sorted((n, tuple(labels[n])) for n in mini.degrees()))
    return MinimalForm(mini, incl, proj, labs)


def signature(x: Complex):
    """Per-degree decomposition signature of a complex (canonical, sortable)."""
    out = {}
    for n in x.degrees():
        t = x.term(n)
        if cell_is_zero(x.kind, t):
            continue
        if x.kind == F2:
            out[n] = t
        elif x.kind == C2:
            out[n] = t.module_split()
        else:
            out[n] = decompose(t).sum
    return out


# ---------------------------------------------------------------------------
# Named complexes and maps
# ---------------------------------------------------------------------------

_ETA = BitMatrix.from_rows([[1], [1]])
_EPS = BitMatrix.from_rows([[1, 1]])
_ETAEPS = BitMatrix.from_rows([[1, 1], [1, 1]])


def _periodic(lo: int, hi: int, top: bool = False, bottom: bool = False) -> Complex:
    """kC2 in degrees lo..hi joined by eta.eps, with k on top in degree
    hi + 1 through eta and/or k at the bottom in degree lo - 1 through eps."""
    k, reg = C2Module.trivial(1), C2Module.free(1)
    terms = {i: reg for i in range(lo, hi + 1)}
    diffs = {i: _ETAEPS for i in range(lo + 1, hi + 1)}
    if top:
        terms[hi + 1], diffs[hi + 1] = k, _ETA
    if bottom:
        terms[lo - 1], diffs[lo] = k, _EPS
    return build_complex(C2, terms, diffs)


def fundpur() -> Complex:
    """The plain nonsplit extension as a three-term complex in degrees 2, 1, 0."""
    return fundpur_splice(1)


def fundpur_splice(m: int) -> Complex:
    """m-fold splice of the basic extension, degrees m+1 down to 0; zero for m <= 0."""
    return _periodic(1, m, top=True, bottom=True) if m > 0 else Complex(C2, 0, (), ())


def invertpur_pow(n: int) -> Complex:
    """Canonical tensor powers of the invertible two-term complex."""
    if n == 0:
        return single(C2, C2Module.trivial(1))
    return _periodic(0, n - 1, top=True) if n > 0 else _periodic(n + 1, 0, bottom=True)


def fund0() -> Complex:
    """Pure-weight-zero lift of the basic extension, degrees 2, 1, 0."""
    u, e0 = realize(unit_label(0)), realize(e_label(0, 0))
    return build_complex(FILT, {2: u, 1: e0, 0: u}, {2: _ETA, 1: _EPS})


@lru_cache(maxsize=64)
def fund_seq(l: int) -> Complex:
    """The admissible fundamental sequence as a complex, degrees 2, 1, 0, built once per l."""
    if l < 1:
        raise ValueError("fundamental sequences need positive length")
    return build_complex(
        FILT,
        {2: realize(unit_label(l)), 1: realize(e_label(l, 0)), 0: realize(unit_label(0))},
        {2: _ETA, 1: _EPS},
    )


def _cell_cone(source, target, m: BitMatrix) -> Complex:
    """Cone of the map m from realize(source) to realize(target), both in degree 0."""
    return cone(ChainMap.of(single(FILT, realize(source)), single(FILT, realize(target)), {0: m}))


def koszul_T() -> Complex:
    """Cone of the weight-shift map on E(1, 0): two terms with identity matrix."""
    return _cell_cone(e_label(1, 0), e_label(1, 1), BitMatrix.identity(2))


def cone_beta() -> Complex:
    return _cell_cone(unit_label(0), unit_label(1), BitMatrix.identity(1))


def cone_rho() -> Complex:
    """Canonical model E(1,0)[1] of the cone of the extension-class map."""
    return single(FILT, realize(e_label(1, 0)), 1)


def cone_omega() -> Complex:
    """Cone of the canonical map E(1,0) -> E(0,1), underlain by the identity."""
    return _cell_cone(e_label(1, 0), e_label(0, 1), BitMatrix.identity(2))


def cone_eta() -> Complex:
    """Cone of the unit 1(0) -> E(0,0) of the extension point."""
    return _cell_cone(unit_label(0), e_label(0, 0), _ETA)


def cone_eps() -> Complex:
    """Cone of the counit E(0,0) -> 1(0) of the extension point."""
    return _cell_cone(e_label(0, 0), unit_label(0), _EPS)


def cone_beta_rho() -> Complex:
    """Cone of the composite weight-two class, via the standard roof resolution."""
    src = build_complex(
        FILT,
        {1: realize(unit_label(1)), 0: realize(e_label(1, 0))},
        {1: _ETA},
    )
    tgt = single(FILT, realize(unit_label(2)), 1)
    g = ChainMap.of(src, tgt, {1: BitMatrix.identity(1)})
    return cone(g)


@lru_cache(maxsize=64)
def injres_trunc(j: int) -> Complex:
    """First j terms of the injective resolution of the unit, degrees 0 .. -(j-1).
    Built once per j: rwz and hom_DE ask for it on every call."""
    if j <= 0:
        return Complex(FILT, 0, (), ())
    terms = {-(i - 1): realize(e_label(1, -i)) for i in range(1, j + 1)}
    diffs = {-(i - 2): _ETAEPS for i in range(2, j + 1)}
    return build_complex(FILT, terms, diffs)


def eps_tilde() -> ChainMap:
    """Counit collapse of the invertible complex onto the unit, in degree 0."""
    return ChainMap.of(invertpur_pow(1), single(C2, C2Module.trivial(1)), {0: _EPS})


def eta_tilde() -> ChainMap:
    """Unit inclusion into the inverse invertible complex, in degree 0."""
    return ChainMap.of(single(C2, C2Module.trivial(1)), invertpur_pow(-1), {0: _ETA})


def upsilon() -> ChainMap:
    """Identity of the trivial line in degree 0, into the shifted inverse."""
    return ChainMap.of(single(C2, C2Module.trivial(1)), shift(invertpur_pow(-1), 1),
                       {0: BitMatrix.identity(1)})


def eta_upsilon() -> ChainMap:
    """Composite of the two maps above, landing in the (-2)-power shifted once."""
    return ChainMap.of(single(C2, C2Module.trivial(1)), shift(invertpur_pow(-2), 1), {0: _ETA})


def lpure(n: int) -> Complex:
    """Pure-weight-zero lift of the canonical invertible power (filtered complex)."""
    from .functors import pwz_complex

    return pwz_complex(invertpur_pow(n))


NAMED = {
    "fundpur": fundpur,
    "fund0": fund0,
    "T": koszul_T,
    "conebeta": cone_beta,
    "conerho": cone_rho,
    "coneomega": cone_omega,
    "coneeta": cone_eta,
    "coneeps": cone_eps,
    "conebetarho": cone_beta_rho,
    "epstilde": eps_tilde,
    "etatilde": eta_tilde,
    "upsilon": upsilon,
}

NAMED_PARAM = {
    "fundl": fund_seq,
    "invertpur": invertpur_pow,
    "injres": injres_trunc,
    "Lpure": lpure,
    "fundpursplice": fundpur_splice,
}


def named(name: str, *args):
    """Catalog of the canonical complexes and maps used throughout."""
    if name in NAMED:
        if args:
            raise ValueError(f"{name} takes no parameters")
        return NAMED[name]()
    if name in NAMED_PARAM:
        if len(args) != 1:
            raise ValueError(f"{name} takes one integer parameter")
        return NAMED_PARAM[name](args[0])
    raise ValueError(f"unknown name: {name}")
