"""Support computation and the queryable spectrum atlases.

The six-point spectrum carries primes named L, Ls, M, Ms, N, Ns.  A prime
belongs to the support of a complex iff the corresponding residue functor
does not kill it; membership and classification always go through
supports, which the classification theorem makes a complete invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chains import (
    C2,
    FILT,
    ChainMap,
    Complex,
    cone,
    cone_beta,
    cone_beta_rho,
    cone_rho,
    eta_tilde,
    eta_upsilon,
    fund0,
    koszul_T,
    single,
    twist_complex,
    upsilon,
)
from .filtmod import UNIT, IndecLabel, MathEngineError, e_label, realize
from .functors import (
    fgt_complex,
    gr_complex,
    is_exact_F2,
    pwz_complex,
    res_complex,
    min_weight,
    rwz,
    sta_complex,
    tate_dim,
)

PRIMES = ("L", "Ls", "M", "Ms", "N", "Ns")

# x < y means y lies in the closure of x (covering relations)
_COVERS = (("M", "L"), ("M", "Ms"), ("M", "N"), ("L", "Ls"), ("Ms", "Ls"), ("Ms", "Ns"), ("N", "Ns"))


def _transitive_closure(points, covers):
    clo = {p: {p} for p in points}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            for extra in clo[b]:
                if extra not in clo[a]:
                    clo[a].add(extra)
                    changed = True
    return {p: frozenset(s) for p, s in clo.items()}


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------


def supp_KbA(y: Complex) -> frozenset:
    """Support of a plain complex in the three-point spectrum {cL, cM, cN}."""
    if y.kind != C2:
        raise ValueError("supp_KbA applies to plain complexes")
    out = set()
    if not is_exact_F2(res_complex(y)):
        out.add("cN")
    if tate_dim(y) != 0:
        out.add("cM")
    if not is_exact_F2(sta_complex(y)):
        out.add("cL")
    return frozenset(out)


def supp_detail(x: Complex) -> dict[str, bool]:
    """All six residue tests on a filtered complex, keyed by prime.

    The L test is the exactness of sta(tfgt(x)), computed as the exactness
    of sta(rwz(x(-w))) with w the minimum weight of x, so the rwz
    truncation length is the weight span + 1.  Three facts make that the
    same answer:
      - support is twist-invariant: it is a support datum, and twisting is
        tensoring with the invertible 1(-w);
      - at minimum weight 0, tfgt is minimize(rwz(.)), because the untwist
        by invertpur_pow(0) is the unit;
      - sta is additive in each degree, so it preserves homotopy
        equivalences and its exactness does not need the minimal form.
    """
    if x.kind != FILT:
        raise ValueError("supp applies to filtered complexes")
    g = gr_complex(x)
    f = fgt_complex(x)
    t = rwz(twist_complex(x, -min_weight(x)))
    return {
        "Ns": not is_exact_F2(res_complex(g)),
        "Ms": tate_dim(g) != 0,
        "Ls": not is_exact_F2(sta_complex(g)),
        "N": not is_exact_F2(res_complex(f)),
        "M": tate_dim(f) != 0,
        "L": not is_exact_F2(sta_complex(t)),
    }


def supp(x: Complex) -> frozenset:
    return check_support(frozenset(p for p, hit in supp_detail(x).items() if hit))


def label_support(lab: IndecLabel) -> frozenset:
    """Support of the indecomposable realize(lab), read off its label.

    1(m) is the unit up to twist, so its support is all six primes.  For
    E(l, m) the six tests of supp_detail on the one-term complex give:
      - gr is kC2 when l = 0 and two trivial lines when l >= 1, so Ns
        always, and Ms and Ls once l >= 1;
      - fgt is kC2, so N and not M;
      - at minimum weight 0, sta(rwz(.)) is one line in each drop degree,
        0 and -l, and zero elsewhere.  For l >= 2 a free term lies between
        them, so it is not exact: L is in.  For l = 1 the map between them
        is an isomorphism, and for l = 0 every term is free: L is out.
    `supp` of the evaluated complex stays the oracle of this closed form.
    """
    if lab.kind == UNIT:
        return frozenset(PRIMES)
    return frozenset(("N", "Ns") + ("Ls", "Ms") * (lab.l >= 1) + ("L",) * (lab.l >= 2))


def check_support(points: frozenset) -> frozenset:
    """The computed support itself, once it passes the specialization-closed check."""
    if not is_specialization_closed(points):
        raise MathEngineError("computed support is not specialization-closed")
    return points


def is_specialization_closed(points: Iterable[str], closure=None) -> bool:
    clo = closure or ATLAS_DATM2.closure
    pts = set(points)
    return all(clo[p] <= pts for p in pts)


def support_text(points: Iterable[str], order=PRIMES) -> str:
    inside = [p for p in order if p in set(points)]
    return "{" + ", ".join(inside) + "}"


# ---------------------------------------------------------------------------
# Classification into the fourteen closed subsets
# ---------------------------------------------------------------------------

# Canonical generator expressions for the fourteen tensor ideals, in the
# grammar of the shell module.
CLASS_GENERATORS = {
    frozenset(): "0",
    frozenset({"Ls"}): "fund0 * E(1,0)",
    frozenset({"Ns"}): "conebeta * E(0,0)",
    frozenset({"Ls", "Ns"}): "fund0 * E(1,0) + conebeta * E(0,0)",
    frozenset({"L", "Ls"}): "fund0",
    frozenset({"N", "Ns"}): "E(0,0)",
    frozenset({"Ls", "Ms", "Ns"}): "T",
    frozenset({"L", "Ls", "Ns"}): "fund0 + conebeta * E(0,0)",
    frozenset({"Ls", "N", "Ns"}): "fund0 * E(1,0) + E(0,0)",
    frozenset({"L", "Ls", "Ms", "Ns"}): "conebeta",
    frozenset({"L", "Ls", "N", "Ns"}): "fund0 + E(0,0)",
    frozenset({"Ls", "Ms", "N", "Ns"}): "T + E(0,0)",
    frozenset({"L", "Ls", "Ms", "N", "Ns"}): "conebeta + E(0,0)",
    frozenset(PRIMES): "1(0)",
}


@dataclass(frozen=True)
class Classification:
    support: frozenset
    name: str
    generator: str


def classify(x: Complex) -> Classification:
    """Match the support against the fourteen closed subsets."""
    return classify_support(supp(x))


def classify_support(s: frozenset) -> Classification:
    """The class of a support among the fourteen closed subsets."""
    if s not in CLASS_GENERATORS:
        raise MathEngineError("support is not one of the fourteen closed subsets")
    return Classification(s, support_text(s), CLASS_GENERATORS[s])


def ideal_contains(generators: list[Complex], x: Complex) -> bool:
    """Membership of x in the thick tensor ideal generated by the given objects."""
    union = frozenset().union(*(supp(g) for g in generators)) if generators else frozenset()
    return supp(x) <= union


# ---------------------------------------------------------------------------
# Atlases
# ---------------------------------------------------------------------------


@dataclass
class SpectrumPoset:
    """Finite spectrum: points with specialization closures."""

    name: str
    points: tuple[str, ...]
    closure: dict[str, frozenset]

    def closure_of(self, p: str) -> frozenset:
        if p not in self.closure:
            raise ValueError(f"unknown point: {p}")
        return self.closure[p]

    def is_closed(self, points: Iterable[str]) -> bool:
        return is_specialization_closed(points, self.closure)

    def closed_subsets(self) -> list[frozenset]:
        out = []
        pts = list(self.points)
        for mask in range(1 << len(pts)):
            sub = frozenset(p for i, p in enumerate(pts) if (mask >> i) & 1)
            if self.is_closed(sub):
                out.append(sub)
        return sorted(out, key=lambda s: (len(s), sorted(s)))

    def ideal_support(self, p: str) -> frozenset:
        """Support of the prime p as an ideal: the primes not containing it."""
        return frozenset(q for q in self.points if p not in self.closure[q])


def _poset(name, points, covers) -> SpectrumPoset:
    return SpectrumPoset(name, tuple(points), _transitive_closure(points, covers))


ATLAS_DATM2 = _poset("DATM2", PRIMES, _COVERS)
# the three-point spectrum of plain complexes, whose points DAM2 shares
_PLAIN_COVERS = (("cM", "cL"), ("cM", "cN"))
ATLAS_KBA = _poset("KbA", ("cL", "cM", "cN"), _PLAIN_COVERS)
ATLAS_DAM2 = _poset("DAM2", ("cL", "cM", "cN"), _PLAIN_COVERS)
ATLAS_DTM2 = _poset(
    "DTM2",
    ("zero", "conerho", "conebeta", "conebetarho"),
    (("conebetarho", "conerho"), ("conebetarho", "conebeta"),
     ("conerho", "zero"), ("conebeta", "zero")),
)


# the integral atlas: six mod-2 points, one pair of points for every prime
# number, and a generic rational point below all etale points


# The strong probable-prime test to the 13 prime bases 2 .. 41 decides
# primality exactly below _MR_BOUND (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86, 2017).  The bound is strict: it is
# itself a strong pseudoprime to all 13 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime_number(n: int) -> bool:
    """Deterministic Miller-Rabin on _MR_BASES, in time polynomial in the
    digits of n; ValueError at or above _MR_BOUND, where it is not proven."""
    if n >= _MR_BOUND:
        raise ValueError(f"prime index {n} is too large: primality is decided below {_MR_BOUND}")
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SymbolicSet:
    """Subset of the integral spectrum: finitely many named points plus
    optional full families e(l) / m(l) over all prime numbers."""

    points: frozenset = frozenset()
    all_e: bool = False
    all_m: bool = False

    def contains(self, p: str) -> bool:
        if p in self.points:
            return True
        if self.all_e and p.startswith("e("):
            return True
        if self.all_m and p.startswith("m("):
            return True
        return False

    def is_finite(self) -> bool:
        return not (self.all_e or self.all_m)

    def text(self) -> str:
        parts = sorted(self.points)
        if self.all_e:
            parts.append("e(l) for all l")
        if self.all_m:
            parts.append("m(l) for all l")
        return "{" + ", ".join(parts) + "}"


class IntegralAtlas:
    """The integral spectrum with its symbolic infinite point families.

    Finite mod-2 points are L, Ls, M, Ms plus e(2) = N and m(2) = Ns; each
    prime number l contributes e(l) < m(l), and the flagged generic point
    P0 sits below every e(l).
    """

    name = "DATMZ"
    mod2_points = ("L", "Ls", "M", "Ms", "e(2)", "m(2)")
    aliases = {"N": "e(2)", "Ns": "m(2)"}
    # the generic point is unconditional over the real algebraic numbers and
    # conjectural over larger real closed fields
    generic_point_flags = {"conjectural_for_general_base": True, "unconditional_default": True}

    def normalize(self, p: str) -> str:
        p = self.aliases.get(p, p)
        if p in ("L", "Ls", "M", "Ms", "P0"):
            return p
        if p.startswith(("e(", "m(")) and p.endswith(")"):
            try:
                l = int(p[2:-1])
            except ValueError:
                raise ValueError(f"bad point name: {p}")
            if p[2:-1] != str(l):  # one spelling per point: not e(02), e(+3) or m( 5)
                raise ValueError(f"bad point name: {p}")
            if not _is_prime_number(l):
                raise ValueError(f"index must be a prime number: {p}")
            return p
        raise ValueError(f"unknown point: {p}")

    def closure_of(self, p: str) -> SymbolicSet:
        p = self.normalize(p)
        if p == "P0":
            return SymbolicSet(frozenset({"P0"}), all_e=True, all_m=True)
        # a mod-2 point: its DATM2 closure, with N and Ns named e(2) and m(2)
        mod2 = {v: k for k, v in self.aliases.items()}.get(p, p)
        if mod2 in ATLAS_DATM2.closure:
            return SymbolicSet(frozenset(self.aliases.get(q, q) for q in ATLAS_DATM2.closure[mod2]))
        l = p[2:-1]
        if p.startswith("e("):
            return SymbolicSet(frozenset({f"e({l})", f"m({l})"}))
        return SymbolicSet(frozenset({p}))

    def is_closed(self, s: SymbolicSet) -> bool:
        """Closed sets are the finite specialization-closed subsets and the
        sets obtained from those by adding the closure of the generic point."""
        s = SymbolicSet(frozenset(self.normalize(p) for p in s.points), s.all_e, s.all_m)
        # specialization-closedness of the finite part and the families
        for p in s.points:
            clo = self.closure_of(p)
            if clo.all_e and not s.all_e:
                return False
            if clo.all_m and not s.all_m:
                return False
            for q in clo.points:
                if not s.contains(q):
                    return False
        if s.all_e and not s.all_m:
            return False
        # infinite closed sets must contain the whole closure of the generic point
        return s.is_finite() or "P0" in s.points


ATLAS_DATMZ = IntegralAtlas()

_ATLASES = {
    "KbA": ATLAS_KBA,
    "DATM2": ATLAS_DATM2,
    "DTM2": ATLAS_DTM2,
    "DAM2": ATLAS_DAM2,
    "DATMZ": ATLAS_DATMZ,
}


def atlas(name: str):
    if name not in _ATLASES:
        raise ValueError(f"unknown atlas: {name}")
    return _ATLASES[name]


# point-by-point comparison maps induced by the subcategory inclusions
COMPARE_MAPS = {
    "DATM2->DTM2": {
        "Ls": "zero", "Ms": "zero", "Ns": "zero",
        "L": "conerho", "N": "conebeta", "M": "conebetarho",
    },
    "DATM2->DAM2": {
        "L": "cL", "Ls": "cL", "M": "cM", "Ms": "cM", "N": "cN", "Ns": "cN",
    },
}


def compare(map_name: str, point: str) -> str:
    if map_name not in COMPARE_MAPS:
        raise ValueError(f"unknown comparison map: {map_name}")
    table = COMPARE_MAPS[map_name]
    if point not in table:
        raise ValueError(f"unknown point for {map_name}: {point}")
    return table[point]


# ---------------------------------------------------------------------------
# Prime generator verification
# ---------------------------------------------------------------------------


def pwz_map(f):
    """Lift a plain chain map to pure weight zero."""
    return ChainMap.of(pwz_complex(f.source), pwz_complex(f.target), dict(f.comps))


def koszul_cones() -> dict[str, Complex]:
    """The six one-equation cuts: each prime is generated by the cone of a
    single map from the unit into an invertible object."""
    return {
        "Ls": cone(pwz_map(upsilon())),
        "Ns": cone(pwz_map(eta_tilde())),
        "L": cone_rho(),
        "Ms": cone(pwz_map(eta_upsilon())),
        "N": cone_beta(),
        "M": cone_beta_rho(),
    }


@dataclass(frozen=True)
class GeneratorCheck:
    prime: str
    description: str
    expected: frozenset
    computed: frozenset

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def verify_prime_generators() -> list[GeneratorCheck]:
    """Check that every listed generating set has union of supports equal to
    the support of its prime read off the poset."""
    E0 = single(FILT, realize(e_label(0, 0)))
    E1 = single(FILT, realize(e_label(1, 0)))
    E2 = single(FILT, realize(e_label(2, 0)))
    T = koszul_T()
    F0 = fund0()
    CB = cone_beta()
    listed: list[tuple[str, str, list[Complex]]] = [
        ("M", "T, E(0,0), fund0", [T, E0, F0]),
        ("L", "T, E(0,0)", [T, E0]),
        ("N", "T, fund0", [T, F0]),
        ("Ms", "E(0,0), fund0", [E0, F0]),
        ("Ls", "E(0,0)", [E0]),
        ("Ns", "fund0", [F0]),
        ("L", "E(1,0)", [E1]),
        ("N", "conebeta", [CB]),
        ("M", "E(2,0)", [E2]),
    ]
    out = []
    for prime, desc, gens in listed:
        expected = ATLAS_DATM2.ideal_support(prime)
        computed = frozenset().union(*(supp(g) for g in gens))
        out.append(GeneratorCheck(prime, desc, expected, computed))
    for prime, kos in koszul_cones().items():
        expected = ATLAS_DATM2.ideal_support(prime)
        out.append(GeneratorCheck(prime, f"koszul cut for {prime}", expected, supp(kos)))
    return out
