"""Answer checks, run after the timed loop.

Supports are checked against the support-datum laws: the support of a sum
is the union, of a tensor the intersection, and twist, shift and dual leave
it unchanged.  The laws reduce every expression to a table of atom
supports, written out below from the engine's specification.  Classes are
checked against `spectrum.CLASS_GENERATORS`, membership as a subset test,
decompositions against the formal sum the generator scrambled (or, for
`high_weight`, a closed form), minimal forms by `proj . incl = id` and
unchanged forgetful homology, and hom dimensions by recomputing them from
the minimized source.
"""

from __future__ import annotations

import re

from .inputs import sum_text

PRIMES = ("L", "Ls", "M", "Ms", "N", "Ns")
ALL = frozenset(PRIMES)
_E0 = frozenset({"N", "Ns"})
_E1 = frozenset({"Ls", "Ms", "N", "Ns"})
_E2 = frozenset({"L", "Ls", "Ms", "N", "Ns"})
_CONEBETA = frozenset({"L", "Ls", "Ms", "Ns"})
_T = frozenset({"Ls", "Ms", "Ns"})

_CONSTANT_SUPPORT = {
    "0": frozenset(),
    "fund0": frozenset({"L", "Ls"}),
    "T": _T,
    "coneomega": _T,
    "conebeta": _CONEBETA,
    "conerho": _E1,
    "M(R)": ALL,
    "M(C)": _E0,
    "cone(beta)": _CONEBETA,
    "cone(rho)": _E1,
    "cone(eta)": ALL,
    "cone(eps)": ALL,
}

_ATOM = re.compile(r"^(1|E|fundl|Lpure)\((-?\d+)(?:,(-?\d+))?\)$")


def atom_support(text: str) -> frozenset:
    if text in _CONSTANT_SUPPORT:
        return _CONSTANT_SUPPORT[text]
    m = _ATOM.match(text)
    if m is None:
        raise ValueError(f"no support known for atom '{text}'")
    name, first = m.group(1), int(m.group(2))
    if name in ("1", "Lpure"):
        return ALL
    if name == "fundl":        # an admissible short exact sequence: zero in the derived category
        return frozenset()
    return (_E0, _E1)[first] if first < 2 else _E2


def support(tree) -> frozenset:
    op = tree[0]
    if op == "atom":
        return atom_support(tree[1])
    if op == "sum":
        return support(tree[1]) | support(tree[2])
    if op == "tensor":
        return support(tree[1]) & support(tree[2])
    return support(tree[1])     # twist, shift, dual


def support_text(points) -> str:
    return "{" + ", ".join(p for p in PRIMES if p in points) + "}"


# ---------------------------------------------------------------------------
# Closed forms for decompositions of atoms and short expressions
# ---------------------------------------------------------------------------


def _label(text: str) -> tuple:
    m = _ATOM.match(text)
    if m is None or m.group(1) not in ("1", "E"):
        raise ValueError(f"no closed form for atom '{text}'")
    if m.group(1) == "1":
        return ("1", 0, int(m.group(2)))
    return ("E", int(m.group(2)), int(m.group(3)))


def _tensor_labels(x: tuple, y: tuple) -> list:
    if x[0] == "1":
        return [(y[0], y[1], y[2] + x[2])]
    if y[0] == "1":
        return [(x[0], x[1], x[2] + y[2])]
    a, b = min(x[1], y[1]), max(x[1], y[1])
    return [("E", a, x[2] + y[2]), ("E", a, x[2] + y[2] + b)]


def formal_sum(tree) -> list:
    """Labels of the decomposition: E(l,m) * E(l',m') = E(a,m+m') + E(a,m+m'+b)
    with a = min(l,l') and b = max(l,l'); dual(E(l,m)) = E(l,-l-m)."""
    op = tree[0]
    if op == "atom":
        return [_label(tree[1])]
    if op == "sum":
        return formal_sum(tree[1]) + formal_sum(tree[2])
    if op == "tensor":
        return [z for x in formal_sum(tree[1]) for y in formal_sum(tree[2]) for z in _tensor_labels(x, y)]
    if op == "twist":
        return [(k, l, m + tree[2]) for k, l, m in formal_sum(tree[1])]
    if op == "dual":
        return [(k, l, -l - m) for k, l, m in formal_sum(tree[1])]
    raise ValueError(f"no closed form for '{op}'")


def unit_hom_lines(a: int, b: int) -> list[str]:
    """hom 1(a) -> 1(b): dimension one in shifts 0 .. b-a (motivic cohomology of the point)."""
    return [f"n={n} dim=1" for n in range(b - a + 1)] or ["zero in all shifts"]


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def expected_report(query) -> tuple[list[str], list[str]] | None:
    """(result lines, trace lines) that `shell.run` must return, when known
    without the engine's help; None for answers checked another way."""
    kind, trees = query.kind, query.trees
    if kind == "support":
        s = support(trees[0])
        return [support_text(s)], [f"{p}:{'nonzero' if p in s else 'zero'}" for p in PRIMES]
    if kind == "classify":
        from ttfilt.spectrum import CLASS_GENERATORS

        s = support(trees[0])
        return [f"support {support_text(s)}", f"ideal generated by: {CLASS_GENERATORS[s]}"], []
    if kind == "member":
        union = frozenset().union(*(support(t) for t in trees[1:]))
        return [str(support(trees[0]) <= union).lower()], []
    if kind == "decompose" and trees:
        return [sum_text(formal_sum(trees[0]))], ["certificate validated: True"]
    if kind == "hom" and trees:
        return unit_hom_lines(_label(trees[0][1])[2], _label(trees[1][1])[2]), []
    return None


def check(query, answer: str, payload) -> bool:
    """True iff the answer to `query` is correct; `payload` holds the engine
    objects a structure answer was read from."""
    want = expected_report(query)
    if want is not None:
        return answer == "\n".join(want[0] + want[1])
    if query.kind == "decompose":
        return answer == query.expect[0] and payload.validate()
    if query.kind == "minimize":
        return _check_minimize(query, answer, *payload)
    if query.kind == "hom":
        return _check_hom(answer, *payload)
    raise ValueError(f"no check for query kind '{query.kind}'")


def labels_of(mf) -> dict:
    """Summand labels of a minimal form by degree, as generator label tuples."""
    return {n: [(lab.kind, lab.l, lab.m) for lab in labs] for n, labs in mf.labels}


def minimal_text(labels) -> str:
    return "; ".join(f"d{n}: {sum_text(labs)}" for n, labs in sorted(labels.items()) if labs)


def _check_minimize(query, answer: str, x, mf) -> bool:
    from ttfilt.functors import fgt_complex, homology

    if answer != minimal_text(labels_of(mf)) or (query.expect and answer != minimal_text(query.expect[0])):
        return False
    back = mf.proj.compose(mf.incl)
    if not all(back.comp(n).is_identity() for n in mf.complex.degrees()):
        return False
    return homology(fgt_complex(x)) == homology(fgt_complex(mf.complex))


def hom_text(dims: dict) -> str:
    return "; ".join(f"n={n} dim={d}" for n, d in sorted(dims.items())) or "zero"


def _check_hom(answer: str, x, y) -> bool:
    from ttfilt.chains import minimize
    from ttfilt.functors import hom_DE

    return answer == hom_text(hom_DE(minimize(x).complex, y))
