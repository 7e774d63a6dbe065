"""Seeded input generator for the three benchmark workloads.

Everything here is plain Python over ints: no engine module is imported, so
a change to the engine (a new GF(2) kernel, a new decomposition algorithm)
cannot change the inputs.  The output is grammar text for `shell.run` and
`ttfilt-io 1` text for `shell.deserialize`, plus the expression trees and
formal sums the answer checks need.

Query i is drawn from its own `random.Random(f"{seed}/{workload}/{i}")`
stream, and its kind and size class follow a fixed cycle, so the query mix
is the same for every seed and only the details vary.  That keeps
throughput steady across seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

WORKLOADS = ("support_mix", "structure", "high_weight")



@dataclass(frozen=True)
class Query:
    kind: str                 # support | classify | member | decompose | minimize | hom
    args: tuple[str, ...]     # grammar text or ttfilt-io 1 text, one per argument
    trees: tuple = ()         # expression trees of the grammar arguments
    expect: tuple = ()        # generator-side facts the checks compare against

    def text(self) -> str:
        return self.kind + "\t" + "\t".join(self.args)


def query(workload: str, seed: int, i: int) -> Query:
    """Query i of a workload; it depends on (workload, seed, i) only."""
    make = {"support_mix": _support_mix, "structure": _structure, "high_weight": _high_weight}[workload]
    return make(random.Random(f"{seed}/{workload}/{i}"), i)


def generate(workload: str, seed: int, count: int) -> list[Query]:
    return [query(workload, seed, i) for i in range(count)]


def digest(queries: list[Query]) -> str:
    h = hashlib.sha256()
    for q in queries:
        h.update(q.text().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Expression trees: ("atom", text) | ("sum", a, b) | ("tensor", a, b)
#                   | ("twist", a, r) | ("shift", a, k) | ("dual", a)
# ---------------------------------------------------------------------------


def render(t) -> str:
    op = t[0]
    if op == "atom":
        return t[1]
    if op == "sum":
        return f"{render(t[1])} + {render(t[2])}"
    if op == "tensor":
        return " * ".join(f"({render(a)})" if a[0] == "sum" else render(a) for a in t[1:])
    if op in ("twist", "shift"):
        return f"{op}({render(t[1])}, {t[2]})"
    if op == "dual":
        return f"dual({render(t[1])})"
    raise ValueError(f"bad tree node {op}")


def _small_atom(rng: random.Random) -> tuple:
    """An atom whose weights stay within |w| <= 2."""
    r = rng.random()
    if r < 0.30:
        l = rng.randint(0, 2)
        return ("atom", f"E({l},{rng.randint(-2, 2 - l)})")
    if r < 0.40:
        return ("atom", f"1({rng.randint(-2, 2)})")
    if r < 0.48:
        return ("atom", f"Lpure({rng.randint(-2, 2)})")
    if r < 0.53:
        return ("atom", f"fundl({rng.randint(1, 2)})")
    if r < 0.60:
        return ("atom", f"M({rng.choice('RC')})")
    if r < 0.70:
        return ("atom", f"cone({rng.choice(('beta', 'rho', 'eta', 'eps'))})")
    return ("atom", rng.choice(("fund0", "T", "conebeta", "conerho", "coneomega")))


# (total dimension, lowest weight, highest weight) of the constant atoms
_CONSTANTS = {"fund0": (4, 0, 0), "T": (4, 0, 2), "conebeta": (2, 0, 1), "conerho": (2, 0, 1),
              "coneomega": (4, 0, 1), "M(R)": (1, 0, 0), "M(C)": (2, 0, 0), "cone(beta)": (2, 0, 1),
              "cone(rho)": (2, 0, 1), "cone(eta)": (3, 0, 0), "cone(eps)": (3, 0, 0)}
# support_mix keeps every weight within |w| <= 2 and the total dimension at
# most 12: support cost grows steeply with both, and a few large queries
# would otherwise decide a run's throughput.
_SUPPORT_MIX_MAX_WEIGHT = 2
_SUPPORT_MIX_MAX_DIM = 12


def shape(t) -> tuple[int, int, int]:
    """(total dimension, lowest weight, highest weight) of the complex a tree evaluates to."""
    op = t[0]
    if op == "atom":
        if t[1] in _CONSTANTS:
            return _CONSTANTS[t[1]]
        head, args = t[1].rstrip(")").split("(")
        a = [int(x) for x in args.split(",")]
        if head == "E":
            return 2, a[1], a[0] + a[1]
        if head == "1":
            return 1, a[0], a[0]
        if head == "fundl":
            return 4, 0, a[0]
        return 1 + 2 * abs(a[0]), 0, 0      # Lpure(n)
    if op == "dual":
        d, lo, hi = shape(t[1])
        return d, -hi, -lo
    if op == "twist":
        d, lo, hi = shape(t[1])
        return d, lo + t[2], hi + t[2]
    if op == "shift":
        return shape(t[1])
    (da, la, ha), (db, lb, hb) = shape(t[1]), shape(t[2])
    if op == "sum":
        return da + db, min(la, lb), max(ha, hb)
    return da * db, la + lb, ha + hb        # tensor


def _fits_support_mix(t) -> bool:
    d, lo, hi = shape(t)
    return d <= _SUPPORT_MIX_MAX_DIM and -_SUPPORT_MIX_MAX_WEIGHT <= lo and hi <= _SUPPORT_MIX_MAX_WEIGHT


def _small_expr(rng: random.Random, atoms: int) -> tuple:
    """A tree with exactly `atoms` leaves and at most one tensor."""
    if atoms <= 1:
        t = _small_atom(rng)
    else:
        left = rng.randint(1, atoms - 1)
        op = "tensor" if atoms == 2 and rng.random() < 0.5 else "sum"
        t = (op, _small_expr(rng, left), _small_expr(rng, atoms - left))
    r = rng.random()
    if r < 0.15:
        return ("twist", t, rng.choice((-2, -1, 1, 2)))
    if r < 0.30:
        return ("shift", t, rng.choice((-2, -1, 1, 2)))
    if r < 0.40:
        return ("dual", t)
    return t


# One cycle of support_mix: (command, leaves per expression argument).
_SUPPORT_MIX_CYCLE = (
    ("support", (1,)), ("support", (2,)), ("classify", (1,)), ("support", (3,)),
    ("member", (1, 1)), ("support", (2,)), ("classify", (2,)), ("support", (1,)),
    ("member", (2, 1, 1)), ("classify", (3,)),
)


def _support_mix(rng: random.Random, i: int) -> Query:
    kind, sizes = _SUPPORT_MIX_CYCLE[i % len(_SUPPORT_MIX_CYCLE)]
    trees = []
    for n in sizes:
        t = _small_expr(rng, n)
        while not _fits_support_mix(t):
            t = _small_expr(rng, n)
        trees.append(t)
    trees = tuple(trees)
    return Query(kind, tuple(render(t) for t in trees), trees)


# ---------------------------------------------------------------------------
# high_weight: atoms and short expressions with large weights
# ---------------------------------------------------------------------------

_HW_DECOMPOSE_SPAN = 60


def _hw_support_tree(rng: random.Random, j: int) -> tuple:
    """Shape j mod 8, each a narrow class so that its cost varies little
    between seeds; weights of both signs up to about 22."""
    r = rng.randint
    shape = j % 8
    if shape == 0:
        return ("atom", f"E({r(10, 12)},{r(8, 12)})")
    if shape == 1:
        return ("atom", f"E({r(4, 6)},{r(-10, -8)})")
    if shape == 2:
        return ("twist", ("atom", f"E({r(3, 5)},{r(-2, 2)})"), r(8, 12))
    if shape == 3:
        return ("twist", ("atom", f"E({r(3, 5)},{r(-2, 2)})"), -r(8, 12))
    if shape == 4:
        return ("dual", ("atom", f"E({r(5, 7)},{r(2, 4)})"))
    if shape == 5:
        return ("atom", f"1({r(10, 16)})")
    if shape == 6:
        return ("atom", f"fundl({r(8, 12)})")
    return ("sum", ("atom", f"E({r(3, 5)},{r(-4, -2)})"), ("atom", f"1({r(4, 8)})"))


def _hw_decompose_tree(rng: random.Random, j: int) -> tuple:
    s = _HW_DECOMPOSE_SPAN
    shape = j % 5
    if shape == 0:
        return ("atom", f"E({rng.randint(5, s)},{rng.randint(-s, s)})")
    if shape == 1:
        return ("dual", ("atom", f"E({rng.randint(5, s)},{rng.randint(-s, s)})"))
    if shape == 2:
        return ("twist", ("atom", f"E({rng.randint(5, s)},{rng.randint(-s, s)})"),
                rng.choice((-1, 1)) * rng.randint(5, s))
    if shape == 3:
        return ("tensor", ("atom", f"E({rng.randint(2, s // 3)},{rng.randint(-s // 3, s // 3)})"),
                ("atom", f"E({rng.randint(2, s // 3)},{rng.randint(-s // 3, s // 3)})"))
    return ("tensor", ("atom", f"1({rng.randint(-s, s)})"),
            ("dual", ("atom", f"E({rng.randint(5, s)},{rng.randint(-s, s)})")))


def _high_weight(rng: random.Random, i: int) -> Query:
    # five slots: three residue queries, which cost most, then decompose and
    # hom, so that the median falls among the residue queries and not in
    # the gap between them and the cheap ones
    j = i // 5
    slot = i % 5
    if slot in (0, 4):
        t = _hw_support_tree(rng, j + (0 if slot == 0 else 2))
        return Query("support", (render(t),), (t,))
    if slot == 1:
        t = _hw_support_tree(rng, j + 4)
        return Query("classify", (render(t),), (t,))
    if slot == 2:
        t = _hw_decompose_tree(rng, j)
        return Query("decompose", (render(t),), (t,))
    a = rng.randint(-10, 10)
    b = a + rng.randint(-2, 20)
    trees = (("atom", f"1({a})"), ("atom", f"1({b})"))
    return Query("hom", tuple(render(t) for t in trees), trees)


# ---------------------------------------------------------------------------
# GF(2) helpers (rows are ints, bit j of row i is entry (i, j))
# ---------------------------------------------------------------------------


def _mat_mul(a: list[int], b: list[int]) -> list[int]:
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def _apply(m: list[int], v: int) -> int:
    out = 0
    for i, r in enumerate(m):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def _inverse(m: list[int], n: int) -> list[int] | None:
    work = [m[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        sel = next((r for r in range(col, n) if (work[r] >> col) & 1), None)
        if sel is None:
            return None
        work[col], work[sel] = work[sel], work[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
    return [r >> n for r in work]


def _random_invertible(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    while True:
        u = [rng.getrandbits(n) for _ in range(n)]
        inv = _inverse(u, n)
        if inv is not None:
            return u, inv


# ---------------------------------------------------------------------------
# Filtered modules and complexes in the `ttfilt-io 1` layout
# ---------------------------------------------------------------------------

# A label is ("1", 0, n) for the line 1(n) or ("E", l, m) for E(l, m); tuples
# sort like the engine's labels ("1" < "E", then length, then weight).


def label_text(lab: tuple) -> str:
    return f"1({lab[2]})" if lab[0] == "1" else f"E({lab[1]},{lab[2]})"


def sum_text(labels) -> str:
    labs = sorted(labels)
    return " + ".join(label_text(l) for l in labs) if labs else "0"


def _label_dim(lab: tuple) -> int:
    return 1 if lab[0] == "1" else 2


@dataclass
class _Module:
    """A direct sum of realized labels, in the order given (not sorted)."""

    labels: list
    dim: int = 0
    sigma: list = field(default_factory=list)
    offsets: list = field(default_factory=list)

    def __post_init__(self):
        for lab in self.labels:
            o = self.dim
            self.offsets.append(o)
            if lab[0] == "1":
                self.sigma.append(1 << o)
            else:
                self.sigma += [1 << (o + 1), 1 << o]
            self.dim += _label_dim(lab)

    def weights(self) -> tuple[int, int]:
        return min(l[2] for l in self.labels), max(l[1] + l[2] for l in self.labels)

    def layer(self, w: int) -> list[int]:
        vecs = []
        for lab, o in zip(self.labels, self.offsets):
            _, l, m = lab
            if w <= m:
                vecs += [1 << o] if lab[0] == "1" else [1 << o, 1 << (o + 1)]
            elif lab[0] == "E" and w <= m + l:
                vecs.append(0b11 << o)
        return vecs


def _rows_text(rows, width: int) -> str:
    if not rows:
        return "-"
    return "|".join("".join("1" if (r >> j) & 1 else "0" for j in range(width)) for r in rows)


def _module_lines(mod: _Module, u: list[int], uinv: list[int]) -> list[str]:
    """The module transported along the basis change u (uinv its inverse)."""
    lo, hi = mod.weights()
    sigma = _mat_mul(_mat_mul(u, mod.sigma), uinv)
    lines = [f"dim {mod.dim}", f"sigma {_rows_text(sigma, mod.dim)}", f"wmin {lo}", f"wmax {hi}"]
    for w in range(lo, hi + 2):
        lines.append(f"layer {_rows_text([_apply(u, v) for v in mod.layer(w)], mod.dim)}")
    return lines


def module_text(rng: random.Random, labels: list) -> str:
    mod = _Module(list(labels))
    u, uinv = _random_invertible(rng, mod.dim)
    return "\n".join(["ttfilt-io 1", "type filtmodule"] + _module_lines(mod, u, uinv)) + "\n"


def _random_label(rng: random.Random) -> tuple:
    """1(n) or E(l, m) with l <= 2 and weights within |w| <= 1."""
    if rng.random() < 0.35:
        return ("1", 0, rng.randint(-1, 1))
    return ("E", rng.randint(0, 2), rng.randint(-1, 1))


# Elementary pieces of a random complex: (terms by relative degree, diffs).
# Every piece is a complex of realized labels whose differentials are
# filtered equivariant maps in the standard bases; a direct sum of pieces,
# scrambled degreewise, is a random filtered complex whose minimal form is
# the sum of the non-contractible pieces.
_ETA = [1, 1]          # 1(.) -> E(.,.), a 2 x 1 matrix (rows)
_EPS = [0b11]          # E(.,.) -> 1(.), a 1 x 2 matrix
_NORM = [0b11, 0b11]   # E -> E through 1 + sigma


def _piece(rng: random.Random) -> tuple[dict, dict, bool]:
    """(terms {rel degree: label}, diffs {rel degree: rows}, contractible)."""
    r = rng.random()
    m = rng.randint(-1, 1)
    if r < 0.30:
        lab = _random_label(rng)
        ident = [1 << i for i in range(_label_dim(lab))]
        return {1: lab, 0: lab}, {1: ident}, True
    if r < 0.50:
        return {0: _random_label(rng)}, {}, False
    if r < 0.62:
        return {1: ("1", 0, m), 0: ("1", 0, m + 1)}, {1: [1]}, False
    if r < 0.74:
        l = rng.randint(0, 1)
        return {1: ("E", l, m), 0: ("E", l, m + 1)}, {1: [0b01, 0b10]}, False
    if r < 0.88:
        l = rng.randint(0, 2)
        return {2: ("1", 0, l + m), 1: ("E", l, m), 0: ("1", 0, m)}, {2: _ETA, 1: _EPS}, False
    l = rng.randint(0, 1)
    return {1: ("E", l, m), 0: ("E", 0, m + l)}, {1: _NORM}, False


@dataclass
class RandomComplex:
    text: str
    minimal_labels: dict      # degree -> sorted labels of the minimal form
    dim: int                  # total dimension


def random_complex(rng: random.Random, pieces: int) -> RandomComplex:
    terms: dict[int, list] = {}
    blocks: list[tuple[int, int, int, list]] = []  # (degree of source, src index, tgt index, rows)
    minimal: dict[int, list] = {}
    for _ in range(pieces):
        p_terms, p_diffs, contractible = _piece(rng)
        base = rng.randint(-1, 1)
        index = {}
        for rel, lab in p_terms.items():
            n = base + rel
            index[rel] = len(terms.setdefault(n, []))
            terms[n].append(lab)
            if not contractible:
                minimal.setdefault(n, []).append(lab)
        for rel, rows in p_diffs.items():
            blocks.append((base + rel, index[rel], index[rel - 1], rows))
    d_min, d_max = min(terms), max(terms)
    for n in range(d_min, d_max + 1):
        terms.setdefault(n, [])
    mods = {n: _Module(labs) for n, labs in terms.items()}
    changes = {n: _random_invertible(rng, mods[n].dim) if mods[n].dim else ([], [])
               for n in mods}
    lines = ["ttfilt-io 1", "type complex", "kind filt", f"dmin {d_min}",
             f"nterms {d_max - d_min + 1}"]
    for n in range(d_min, d_max + 1):
        lines.append(f"begin term {n}")
        if mods[n].dim:
            lines += _module_lines(mods[n], *changes[n])
        else:
            lines += ["dim 0", "sigma -", "wmin 0", "wmax -1", "layer -"]
        lines.append("end term")
    for n in range(d_min + 1, d_max + 1):
        src, tgt = mods[n], mods[n - 1]
        if not (src.dim and tgt.dim):
            continue
        d = [0] * tgt.dim
        for deg, si, ti, rows in blocks:
            if deg == n:
                for k, row in enumerate(rows):
                    d[tgt.offsets[ti] + k] |= row << src.offsets[si]
        d = _mat_mul(_mat_mul(changes[n - 1][0], d), changes[n][1])
        lines += [f"begin diff {n}", f"rows {tgt.dim}", f"cols {src.dim}",
                  f"mat {_rows_text(d, src.dim)}", "end diff"]
    return RandomComplex("\n".join(lines) + "\n", {n: sorted(l) for n, l in minimal.items()},
                         sum(m.dim for m in mods.values()))


# One cycle of structure: (kind, size).  decompose sizes are summand counts
# (28 summands is dimension 45); minimize sizes are piece counts; "tensor"
# minimizes the tensor product of two complexes and "hom" computes hom_DE
# between two, with the piece counts given.  By cost the slots rank d28,
# d28, tensor, d14 x 4, then the cheap ones, so the 90th percentile falls
# in the middle of the d28 class and the median in the middle of the d14
# class, not in a gap between two classes.
_STRUCTURE_CYCLE = (
    ("decompose", 28), ("decompose", 14), ("tensor", (3, 3)), ("decompose", 14), ("hom", (4, 2)),
    ("decompose", 28), ("decompose", 14), ("minimize", 8), ("decompose", 14), ("hom", (4, 2)),
)
_TENSOR_MAX_DIM = 130


def _structure(rng: random.Random, i: int) -> Query:
    kind, size = _STRUCTURE_CYCLE[i % len(_STRUCTURE_CYCLE)]
    if kind == "decompose":
        # a fixed number of summands, 60% of them regular, so that the
        # dimension (and the cost) of a size class varies little
        n_reg = round(0.6 * size)
        labels = [("E", rng.randint(0, 3), rng.randint(-2, 2)) for _ in range(n_reg)]
        labels += [("1", 0, rng.randint(-2, 2)) for _ in range(size - n_reg)]
        rng.shuffle(labels)
        return Query("decompose", (module_text(rng, labels),), expect=(sum_text(labels),))
    if kind == "minimize":
        c = random_complex(rng, size)
        return Query("minimize", (c.text,), expect=(c.minimal_labels,))
    if kind == "tensor":
        # the cost grows steeply with the dimension of the product: bound it
        while True:
            a, b = (random_complex(rng, n) for n in size)
            if 60 <= a.dim * b.dim <= _TENSOR_MAX_DIM:
                return Query("minimize", (a.text, b.text))
    a, b = (random_complex(rng, n) for n in size)
    return Query("hom", (a.text, b.text))
