"""Expression grammar, canonical serialization, and the query engine.

`parse` reads text into the expression tree of `motives` (`Expr` is
`motives.MotiveExpr`), `print_expr` writes it back, and `evaluate` is
`motives.to_filtered`.  Grammar (whitespace-insensitive, integers signed):

    expr    := term ('+' term)*
    term    := factor ('*' factor)*
    factor  := '0' | '1' ['(' int ')'] | 'E' '(' int ',' int ')'
             | 'M' '(' ('R'|'C') ')'
             | 'fund0' | 'T' | 'conebeta' | 'conerho' | 'coneomega'
             | 'fundl' '(' int ')' | 'Lpure' '(' int ')'
             | 'twist' '(' expr ',' int ')' | 'shift' '(' expr ',' int ')'
             | 'dual' '(' expr ')' | 'cone' '(' mapname ')'
             | '(' expr ')'
    mapname := 'beta' | 'rho' | 'eta' | 'eps'

'*' binds tighter than '+'.  Sums are direct sums, '*' is the tensor.

`run` answers `support`, `classify` and `member` from `expr_support` on
the parsed tree: 1(n), E(l,m), M(R) and M(C) read their support off their
label, residue tests run on the other leaves only, and no tensor product
is built; the `--trace` line lists each prime as nonzero iff it lies in
the support.  `tensor`, `dual` and `hom` of trees that the label planner
`expr_labels` reads (label atoms under twist, shift, dual, + and *, each
sum in one degree) answer from the labels, with nothing evaluated
(`hom_labels`); `decompose` evaluates, and when the module is the standard
model of the planned labels the identity is its certificate.  Other trees
are evaluated: `hom` of two modules then decomposes them (`hom_modules`),
and of anything else runs `hom_DE`.

Serialized values carry the versioned schema field "ttfilt-io 1" and use
one line per field; subspace and matrix rows are 0/1 strings, '|'-joined,
with '-' for an empty list of rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .gf2 import BitMatrix, C2Module, Subspace
from .filtmod import (
    FiltModule,
    FormalSum,
    IndecLabel,
    certify,
    decompose,
    dual_labels,
    e_label,
    tensor_labels,
    unit_label,
)
from . import spectrum
from .chains import (
    C2,
    F2,
    FILT,
    ChainMap,
    Complex,
    NAMED_PARAM,
    build_complex,
    cone_beta,
    dual_complex,
    eps_tilde,
    fund0,
    fundpur,
    invertpur_pow,
    is_nullhomotopic,
    minimize,
    shift,
    signature,
    tensor_complex,
    tensor_map,
    validate_complex,
)
from .functors import fgt_complex, gr_complex, hom_DE, hom_labels, hom_modules, homology, tate_dim, tfgt
from .motives import (CATALOG_ATOMS, MAPNAMES, MotiveExpr as Expr, expr_labels, expr_support,
                      motivic_cohomology, to_filtered as evaluate)
from .spectrum import PRIMES, support_text


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SchemaError(Exception):
    """Serialized value violates the documented schema."""


class UsageError(Exception):
    """Bad command or arguments."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.src[start:start + 1] in ("+", "-"):
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.src) and self.src[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer")
        try:
            return int(self.src[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("integer too long", digits) from None

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isalnum() or self.src[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected an identifier")
        return self.src[start:self.pos]

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() == "+":
            self.pos += 1
            e = Expr("sum", args=(e, self.term()))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() == "*":
            self.pos += 1
            e = Expr("tensor", args=(e, self.factor()))
        return e

    def factor(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isdigit() or ch.isalpha():
            name = self.ident()
            if name == "0":
                return Expr("atom", "0")
            if name == "1":
                if self.peek() == "(":
                    self.pos += 1
                    n = self.integer()
                    self.expect(")")
                    return Expr("atom", "1", (n,))
                return Expr("atom", "1", (0,))
            if name == "E":
                self.expect("(")
                l = self.integer()
                self.expect(",")
                m = self.integer()
                self.expect(")")
                return Expr("atom", "E", (l, m))
            if name == "M":
                self.expect("(")
                gen = self.ident()
                self.expect(")")
                if gen not in ("R", "C"):
                    self.error("expected R or C")
                return Expr("atom", f"M({gen})")
            if name in CATALOG_ATOMS:
                if name not in NAMED_PARAM:
                    return Expr("atom", name)
                self.expect("(")
                n = self.integer()
                self.expect(")")
                return Expr("atom", name, (n,))
            if name in ("twist", "shift"):
                self.expect("(")
                e = self.expr()
                self.expect(",")
                n = self.integer()
                self.expect(")")
                return Expr(name, params=(n,), args=(e,))
            if name == "dual":
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return Expr("dual", args=(e,))
            if name == "cone":
                self.expect("(")
                m = self.ident()
                self.expect(")")
                if m not in MAPNAMES:
                    self.error(f"unknown map name '{m}'")
                return Expr("cone", m)
            self.error(f"unknown identifier '{name}'")
        self.error("expected an expression")


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def print_expr(e: Expr) -> str:
    if e.op == "atom":
        if e.name == "0":
            return "0"
        if e.name == "1":
            return f"1({e.params[0]})"
        if e.name == "E":
            return f"E({e.params[0]},{e.params[1]})"
        if e.params:
            return f"{e.name}({e.params[0]})"
        return e.name
    if e.op in ("sum", "tensor"):
        # both operators parse left-nested and '*' binds tighter: parenthesize
        # a sum under a tensor, and a right operand of the same operator
        left, right = e.args
        lt, rt = print_expr(left), print_expr(right)
        if e.op == "tensor" and left.op == "sum":
            lt = f"({lt})"
        if right.op == e.op or (e.op == "tensor" and right.op == "sum"):
            rt = f"({rt})"
        return f"{lt} {'+' if e.op == 'sum' else '*'} {rt}"
    if e.op in ("twist", "shift"):
        return f"{e.op}({print_expr(e.args[0])}, {e.params[0]})"
    if e.op == "dual":
        return f"dual({print_expr(e.args[0])})"
    if e.op == "cone":
        return f"cone({e.name})"
    raise ValueError(f"bad expression node {e.op}")


# ---------------------------------------------------------------------------
# Canonical text rendering of engine values
# ---------------------------------------------------------------------------


def complex_text(x: Complex) -> str:
    """Render like: complex{ d2: 1(0), d1: E(0,0), d0: 1(0); maps: d2=[1|1], d1=[11] }."""
    if x.is_zero():
        return "complex{ 0 }"
    parts = []
    for n in range(x.d_max, x.d_min - 1, -1):
        parts.append(f"d{n}: {term_text(x.kind, x.term(n))}")
    maps = []
    for n in range(x.d_max, x.d_min, -1):
        d = x.diff(n)
        maps.append(f"d{n}=[{_rows_text(d.data, d.cols)}]")
    body = ", ".join(parts)
    if maps:
        body += "; maps: " + ", ".join(maps)
    return "complex{ " + body + " }"


def term_text(kind: str, t) -> str:
    if kind == F2:
        return f"k^{t}"
    if kind == C2:
        a, b = t.module_split()
        parts = []
        if a:
            parts.append(f"k^{a}" if a > 1 else "k")
        if b:
            parts.append(f"kC2^{b}" if b > 1 else "kC2")
        return " + ".join(parts) if parts else "0"
    return decompose(t).sum.text()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

SCHEMA = "ttfilt-io 1"


def _rows_text(rows: tuple[int, ...], width: int) -> str:
    if not rows:
        return "-"
    return "|".join("".join(str((r >> j) & 1) for j in range(width)) for r in rows)


def _rows_parse(text: str, width: int) -> list[int]:
    if text == "-":
        return []
    out = []
    for chunk in text.split("|"):
        # the character check comes first: int() also takes '_', signs and other digits
        if len(chunk) != width or chunk.strip("01"):
            raise SchemaError(f"bad row '{chunk}' for width {width}")
        out.append(int(chunk[::-1] or "0", 2))
    return out


def _term_lines(kind: str, t) -> list[str]:
    """The fields of one cell: its dim; for C2 and FILT its sigma; for FILT its
    weight range and each stored layer, rendered once, on every weight of its interval."""
    if kind == F2:
        return [f"dim {t}"]
    sigma = t.sigma if kind == C2 else t.module.sigma
    lines = [f"dim {t.dim}", f"sigma {_rows_text(sigma.data, t.dim)}"]
    if kind == FILT:
        lines += [f"wmin {t.w_min}", f"wmax {t.w_max}"]
        for w, end, lay in zip(t.weights, (*t.weights[1:], t.w_max + 2), t.layers):
            lines += [f"layer {_rows_text(lay.basis.data, t.dim)}"] * (end - w)
    return lines


# an integer as serialize writes it, the one spelling that _LineReader.integer
# and _label_parse read: an optional ASCII sign and ASCII digits (int() alone
# also takes '_', spaces and the digits of other scripts)
_INTEGER = "[+-]?[0-9]+"


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.idx = 0

    def next(self) -> str:
        while self.idx < len(self.lines) and not self.lines[self.idx].strip():
            self.idx += 1
        if self.idx >= len(self.lines):
            raise SchemaError("unexpected end of input")
        line = self.lines[self.idx].strip()
        self.idx += 1
        return line

    def peek(self) -> str:
        save = self.idx
        try:
            line = self.next()
        except SchemaError:
            return ""
        self.idx = save
        return line

    def field(self, key: str) -> str:
        line = self.next()
        if line == key:
            # an empty value (one row of width zero) loses its separator to next()
            return ""
        if not line.startswith(key + " "):
            raise SchemaError(f"expected field '{key}', got '{line}'")
        return line[len(key) + 1:]

    def integer(self, key: str, minimum: int | None = None) -> int:
        text = self.field(key)
        try:
            if not re.fullmatch(_INTEGER, text):
                raise ValueError
            value = int(text)
        except ValueError:  # also more digits than int() converts
            raise SchemaError(f"field '{key}': expected an integer, got '{text}'") from None
        if minimum is not None and value < minimum:
            raise SchemaError(f"field '{key}': {value} is below {minimum}")
        return value


def _term_read(r: _LineReader, kind: str):
    """One cell, as _term_lines writes it, with every check on the text:
    row widths, sigma square and an involution, and the layer conditions."""
    dim = r.integer("dim", 0)
    if kind == F2:
        return dim
    rows = _rows_parse(r.field("sigma"), dim)
    if len(rows) != dim:
        raise SchemaError("sigma must be square")
    sigma = BitMatrix(dim, dim, tuple(rows))
    if not sigma.mul(sigma).is_identity():
        raise SchemaError("sigma is not an involution")
    mod = C2Module(dim, sigma)
    if kind == C2:
        return mod
    w_min = r.integer("wmin")
    w_max = r.integer("wmax", w_min - 1)
    # (weight, layer) where the text changes: a repeated line is neither parsed nor spanned
    pairs, text = [], None
    for w in range(w_min, w_max + 2):
        if (line := r.field("layer")) != text:
            pairs.append((w, Subspace.span(dim, _rows_parse(line, dim))))
            text = line
    if dim == 0:
        return FiltModule.zero()
    layer = lambda w: next(lay for v, lay in reversed(pairs) if v <= w)
    # one layer per weight, tight at both ends, as serialize writes them; of() keeps the drops
    for bad, message in ((not pairs[0][1].is_full(), "bottom layer must be the whole space"),
                         (not pairs[-1][1].is_zero(), "top layer must vanish"),
                         (w_max > w_min and layer(w_max).is_zero(), "weight range not tight at top"),
                         (w_max > w_min and layer(w_min + 1).is_full(), "weight range not tight at bottom")):
        if bad:
            raise SchemaError(message)
    try:
        return FiltModule.of(mod, pairs)
    except ValueError as exc:
        raise SchemaError(str(exc))


def serialize(value) -> str:
    """Canonical structured-text encoding of engine values."""
    lines = [SCHEMA]
    if isinstance(value, FiltModule):
        lines.append("type filtmodule")
        lines.extend(_term_lines(FILT, value))
    elif isinstance(value, FormalSum):
        lines.append("type formalsum")
        lines.append("labels " + ("|".join(l.text() for l in value.labels) if value.labels else "-"))
    elif isinstance(value, frozenset) or isinstance(value, set):
        lines.append("type support")
        pts = sorted(value)
        lines.append("points " + ("|".join(pts) if pts else "-"))
    elif isinstance(value, Complex):
        lines.append("type complex")
        lines.append(f"kind {value.kind}")
        lines.append(f"dmin {value.d_min}")
        lines.append(f"nterms {len(value.terms)}")
        for i, t in enumerate(value.terms):
            lines.append(f"begin term {value.d_min + i}")
            lines.extend(_term_lines(value.kind, t))
            lines.append("end term")
        for i, d in enumerate(value.diffs):
            lines.append(f"begin diff {value.d_min + i + 1}")
            lines.append(f"rows {d.rows}")
            lines.append(f"cols {d.cols}")
            lines.append(f"mat {_rows_text(d.data, d.cols)}")
            lines.append("end diff")
    else:
        raise SchemaError(f"cannot serialize {type(value).__name__}")
    return "\n".join(lines) + "\n"


def _label_parse(text: str) -> IndecLabel:
    """The label written as 1(n) or E(l,m), l >= 0: the one place where
    serialized text becomes a label, so its fields are checked here.  Each
    integer is an _INTEGER, as in the grammar."""
    found = re.fullmatch(rf"(?:1\(|E\(({_INTEGER}),)({_INTEGER})\)", text)
    try:
        if found and found[1] is None:
            return unit_label(int(found[2]))
        if found and int(found[1]) >= 0:
            return e_label(int(found[1]), int(found[2]))
    except ValueError:  # more digits than int() converts
        pass
    raise SchemaError(f"bad label '{text}'")


def deserialize(text: str):
    """Parse and revalidate a serialized value; SchemaError on any defect,
    including text left over after the value."""
    r = _LineReader(text.splitlines())
    if r.next() != SCHEMA:
        raise SchemaError("missing or unsupported schema header")
    value = _value_read(r)
    if r.peek():
        raise SchemaError(f"trailing input '{r.peek()}'")
    return value


def _value_read(r: _LineReader):
    kind = r.field("type")
    if kind == "filtmodule":
        return _term_read(r, FILT)
    if kind == "formalsum":
        labs = r.field("labels")
        if labs == "-":
            return FormalSum(())
        return FormalSum.of(*(_label_parse(t) for t in labs.split("|")))
    if kind == "support":
        pts = r.field("points")
        if pts == "-":
            return frozenset()
        out = frozenset(pts.split("|"))
        if not out <= set(PRIMES):
            raise SchemaError("unknown prime in support set")
        return out
    if kind == "complex":
        cell = r.field("kind")
        if cell not in (FILT, C2, F2):
            raise SchemaError(f"unknown cell kind '{cell}'")
        d_min = r.integer("dmin")
        nterms = r.integer("nterms", 0)
        terms = {}
        diffs = {}
        for deg in range(d_min, d_min + nterms):
            if r.next() != f"begin term {deg}":
                raise SchemaError(f"expected the term block of degree {deg}")
            terms[deg] = _term_read(r, cell)
            if r.next() != "end term":
                raise SchemaError("unterminated term block")
        while r.peek().startswith("begin diff "):
            deg = r.integer("begin diff")
            if deg in diffs:
                raise SchemaError(f"duplicate diff block of degree {deg}")
            rows = r.integer("rows", 0)
            cols = r.integer("cols", 0)
            data = _rows_parse(r.field("mat"), cols)
            if len(data) != rows:
                raise SchemaError("matrix row count mismatch")
            diffs[deg] = BitMatrix(rows, cols, tuple(data))
            if r.next() != "end diff":
                raise SchemaError("unterminated diff block")
        try:
            x = build_complex(cell, terms, diffs)
            validate_complex(x)
        except ValueError as exc:
            raise SchemaError(str(exc))
        return x
    raise SchemaError(f"unknown type '{kind}'")


# ---------------------------------------------------------------------------
# Reports and the command engine
# ---------------------------------------------------------------------------


@dataclass
class Report:
    command: str
    query: str
    result: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    ok: bool = True

    def render(self, fmt: str = "text", with_trace: bool = False) -> str:
        if fmt == "json-like":
            lines = ["schema ttfilt-report/1", f"command {self.command}", f"query {self.query}"]
            lines += [f"result {r}" for r in self.result]
            if with_trace:
                lines += [f"trace {t}" for t in self.trace]
            lines.append(f"ok {str(self.ok).lower()}")
            return "\n".join(lines)
        lines = list(self.result)
        if with_trace and self.trace:
            lines.append("trace: " + "; ".join(self.trace))
        return "\n".join(lines)


def _eval_arg(text: str) -> Complex:
    return evaluate(parse(text))


def _plan_args(texts: list[str]) -> tuple[list | None, list]:
    """(the expr_labels of each argument, Nones) when every tree plans, else
    (None, the evaluated complexes).  Read in order up to the first tree that
    does not plan; a planned tree evaluates without error, so any error is
    the one evaluating the arguments in order raises."""
    planned = []
    for i, text in enumerate(texts):
        if (p := expr_labels(e := parse(text))) is None:
            return None, [*map(_eval_arg, texts[:i]), evaluate(e), *map(_eval_arg, texts[i + 1:])]
        planned.append(p)
    return planned, [None] * len(texts)


def _as_module(x: Complex) -> FiltModule:
    if x.is_zero():
        return FiltModule.zero()
    if x.d_min != x.d_max:
        raise UsageError("expected an expression concentrated in one degree")
    return x.term(x.d_min)


def _support(text: str) -> frozenset:
    return expr_support(parse(text))


def _supp_report(command: str, query: str, points: frozenset) -> Report:
    rep = Report(command, query, [support_text(points)])
    rep.trace = [f"{p}:{'nonzero' if p in points else 'zero'}" for p in sorted(PRIMES)]
    return rep


def run(command: str, args: list[str]) -> Report:
    """Execute one engine query; deterministic output for fixed input."""
    if command == "decompose":
        (text,) = _args(args, 1)
        planned = expr_labels(e := parse(text))
        a = _as_module(evaluate(e))
        # both validate their certificate, and raise MathEngineError if it fails
        dec = certify(a, planned[1]) if planned else decompose(a)
        return Report(command, text, [dec.sum.text()], trace=["certificate validated: True"])
    if command in ("tensor", "dual"):
        tensor = command == "tensor"
        query = " * ".join(_args(args, 2 if tensor else 1))
        planned, xs = _plan_args(args)
        if planned:
            labels = [fs for _, fs in planned]
            fs = tensor_labels(*labels) if tensor else dual_labels(*labels)
            return Report(command, query, [fs.text()])
        x = tensor_complex(*xs) if tensor else dual_complex(*xs)
        if x.is_zero() or x.d_min == x.d_max:
            return Report(command, query, [decompose(_as_module(x)).sum.text()])
        return Report(command, query, [complex_text(minimize(x).complex if tensor else x)])
    if command == "minimize":
        (text,) = _args(args, 1)
        return Report(command, text, [complex_text(minimize(_eval_arg(text)).complex)])
    if command == "support":
        (text,) = _args(args, 1)
        return _supp_report(command, text, _support(text))
    if command == "classify":
        (text,) = _args(args, 1)
        cls = spectrum.classify_support(_support(text))
        return Report(command, text,
                      [f"support {cls.name}", f"ideal generated by: {cls.generator}"])
    if command == "member":
        if len(args) < 2:
            raise UsageError("member needs a candidate and at least one generator")
        # the thick tensor ideal of the generators is cut out by the union of their supports
        x = _support(args[0])
        union = frozenset().union(*(_support(t) for t in args[1:]))
        return Report(command, " ".join(args), [str(x <= union).lower()])
    if command == "hom":
        planned, (x, y) = _plan_args(_args(args, 2))
        if planned:
            (p, xs), (q, ys) = planned
            dims = hom_labels(p - q, xs, ys)
        else:
            modules = all(z.is_zero() or z.d_min == z.d_max for z in (x, y))
            dims = (hom_modules if modules else hom_DE)(x, y)
        lines = [f"n={n} dim={d}" for n, d in sorted(dims.items())] or ["zero in all shifts"]
        return Report(command, " -> ".join(args), lines)
    if command == "gr":
        (text,) = _args(args, 1)
        return Report(command, text, [complex_text(gr_complex(_eval_arg(text)))])
    if command == "fgt":
        (text,) = _args(args, 1)
        return Report(command, text, [complex_text(fgt_complex(_eval_arg(text)))])
    if command == "tfgt":
        (text,) = _args(args, 1)
        return Report(command, text, [complex_text(tfgt(_eval_arg(text)))])
    if command == "tate":
        (text,) = _args(args, 1)
        return Report(command, text, [str(tate_dim(fgt_complex(_eval_arg(text))))])
    if command == "atlas":
        return _atlas_report(args)
    if command == "verify":
        return run_verify()
    raise UsageError(f"unknown command '{command}'")


def _args(args: list[str], n: int) -> list[str]:
    if len(args) != n:
        raise UsageError(f"expected {n} argument(s), got {len(args)}")
    return args


def _atlas_report(args: list[str]) -> Report:
    if not args:
        raise UsageError("atlas needs a name")
    name, rest = args[0], args[1:]
    atl = spectrum.atlas(name)
    if not rest or rest[0] == "--points":
        if name == "DATMZ":
            pts = list(atl.mod2_points) + ["e(l), m(l) for every prime l", "P0"]
        else:
            pts = list(atl.points)
        return Report("atlas", name, [", ".join(pts)])
    if rest[0] == "--closed-count":
        if name == "DATMZ":
            raise UsageError("the integral atlas has infinitely many closed subsets")
        return Report("atlas", name, [str(len(atl.closed_subsets()))])
    if rest[0] == "--closed-subsets":
        if name == "DATMZ":
            raise UsageError("the integral atlas has infinitely many closed subsets")
        lines = [support_text(s, atl.points) for s in atl.closed_subsets()]
        return Report("atlas", name, lines)
    if rest[0] == "--closure":
        if len(rest) != 2:
            raise UsageError("--closure needs a point")
        if name == "DATMZ":
            return Report("atlas", f"{name} closure {rest[1]}", [atl.closure_of(rest[1]).text()])
        return Report("atlas", f"{name} closure {rest[1]}",
                      [support_text(atl.closure_of(rest[1]), atl.points)])
    if rest[0] == "--compare":
        if len(rest) != 3:
            raise UsageError("--compare needs a map name and a point")
        return Report("atlas", f"{rest[1]} {rest[2]}", [spectrum.compare(rest[1], rest[2])])
    raise UsageError(f"unknown atlas option {rest[0]}")


# ---------------------------------------------------------------------------
# The verify suite: canonical engine facts, keyed by stable slugs
# ---------------------------------------------------------------------------


def _verify_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(slug: str, got, expected):
        checks.append((slug, got == expected, f"got {got}, expected {expected}"))

    sup = lambda t: support_text(spectrum.supp(_eval_arg(t)))
    add("support/E0", sup("E(0,0)"), "{N, Ns}")
    add("support/E1", sup("E(1,0)"), "{Ls, Ms, N, Ns}")
    add("support/E2", sup("E(2,0)"), "{L, Ls, Ms, N, Ns}")
    add("support/E3", sup("E(3,0)"), "{L, Ls, Ms, N, Ns}")
    add("support/E4", sup("E(4,0)"), "{L, Ls, Ms, N, Ns}")
    add("support/conebeta", sup("cone(beta)"), "{L, Ls, Ms, Ns}")
    add("support/fund0", sup("fund0"), "{L, Ls}")
    add("support/T", sup("T"), "{Ls, Ms, Ns}")
    add("support/conebeta-x-E0", sup("cone(beta) * E(0,0)"), "{Ns}")
    add("support/fund0-x-E1", sup("fund0 * E(1,0)"), "{Ls}")
    add("support/unit", sup("1(0)"), "{L, Ls, M, Ms, N, Ns}")

    add("classes/count",
        len({frozenset(spectrum.supp(_eval_arg(g))) for g in spectrum.CLASS_GENERATORS.values()}),
        14)

    add("tensor/E1-x-E2", run("tensor", ["E(1,0)", "E(2,0)"]).result[0], "E(1,0) + E(1,2)")
    add("tensor/galois", run("tensor", ["E(0,0)", "E(0,0)"]).result[0], "E(0,0) + E(0,0)")
    add("dual/E3", run("dual", ["E(3,1)"]).result[0], "E(3,-4)")

    for n in (1, 2):
        m = minimize(tensor_complex(invertpur_pow(n), invertpur_pow(-n))).complex
        add(f"invertible/n{n}", (m.d_min, m.d_max, m.term(0).module_split()), (0, 0, (1, 0)))

    table_ok = all(motivic_cohomology(n, m) == (1 if 0 <= n <= m else 0)
                   for n in range(-1, 5) for m in range(-1, 5))
    checks.append(("cohomology/table", table_ok, "bigraded dimension window"))

    add("atlas/DATM2-closed", len(spectrum.atlas("DATM2").closed_subsets()), 14)
    add("atlas/DTM2-closed", len(spectrum.atlas("DTM2").closed_subsets()), 6)
    add("atlas/DAM2-closed", len(spectrum.atlas("DAM2").closed_subsets()), 5)

    gen_checks = spectrum.verify_prime_generators()
    checks.append(("primes/generators", all(c.ok for c in gen_checks),
                   f"{sum(c.ok for c in gen_checks)}/{len(gen_checks)} generator sets"))

    for n in (-2, 2):
        add(f"tfgt/unit-twist{n}", tfgt(_eval_arg(f"1({n})")) == invertpur_pow(-n), True)
    add("tfgt/conebeta", signature(tfgt(cone_beta())) == signature(shift(fundpur(), -1)), True)
    add("tfgt/fgt-homology", homology(tfgt(fund0())) == homology(fgt_complex(fund0())), True)

    # nilpotence of the counit collapse on the basic acyclic complex
    eps1 = _eps_power(3)
    f = tensor_map(eps1, ChainMap.identity(fundpur()))
    checks.append(("nilpotence/fundpur", is_nullhomotopic(f) is not None, "power 3 kills"))

    rt = "E(2,0) * dual(twist(fund0, 1)) + shift(T, 2)"
    add("parser/roundtrip", print_expr(parse(print_expr(parse(rt)))), print_expr(parse(rt)))

    sample = serialize(evaluate(parse("fund0")))
    add("io/roundtrip", serialize(deserialize(sample)), sample)

    return checks


def _eps_power(l: int):
    """The l-fold tensor power of the counit collapse, source pre-minimized."""
    f = eps_tilde()
    for _ in range(l - 1):
        f = tensor_map(f, eps_tilde())
    mf = minimize(f.source)
    # absorb the unit-complex target into a single degree-zero line
    tgt = minimize(f.target)
    return ChainMap.of(mf.complex, tgt.complex,
                       {n: tgt.proj.comp(n).mul(f.comp(n)).mul(mf.incl.comp(n))
                        for n in mf.complex.degrees()})


def run_verify() -> Report:
    checks = _verify_checks()
    lines = []
    ok_all = True
    for slug, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {slug}" + ("" if ok else f"  [{detail}]"))
        ok_all = ok_all and ok
    lines.append(f"{sum(1 for _, ok, _ in checks if ok)}/{len(checks)} checks passed")
    rep = Report("verify", "engine fact table", lines)
    rep.ok = ok_all
    return rep
