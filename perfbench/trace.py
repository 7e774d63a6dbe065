"""Tracing from outside the engine: wrap each layer's public functions.

`Tracer.install()` replaces the public module-level functions of `shell`,
`motives`, `spectrum`, `functors`, `chains` and `filtmod` with wrappers
that record one span per call (name, start, end, parent span, query id)
in memory.  A `from .chains import minimize` copies the name into the
importing module, so every `ttfilt` module attribute (and module-level dict
value) bound to a wrapped function is rebound.

`gf2` runs hundreds of thousands of times per run, so its functions and
the methods of `BitMatrix`, `Subspace` and `C2Module` get counters and an
accumulated time of their outermost calls instead of spans.  That time is
also charged to the enclosing span as child time, so a span's self time is
its own Python code above `gf2`.

Cache statistics come from `cache_info()` on the engine's `lru_cache`
functions; `clear_caches()` resets them when the worker starts.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("shell", "motives", "spectrum", "functors", "chains", "filtmod")

# Tiny dispatch helpers called ~100k times per run: a span each would cost
# more than the work.  Their time stays in the caller's self time.
_NO_SPAN = {
    "chains": {"cell_dim", "cell_zero", "cell_is_zero", "cell_sum", "cell_tensor", "cell_dual",
               "cell_constraint_rows", "cell_is_morphism", "tensor_layout"},
    "filtmod": {"e_label", "unit_label", "fgt"},
    "functors": {"max_weight", "min_weight"},
    "spectrum": {"is_specialization_closed", "support_text"},
}

_GF2_CLASSES = ("BitMatrix", "Subspace", "C2Module")

# Span record fields.
NAME, START, END, PARENT, QUERY, CHILD, OUTER, DIMS = range(8)


def _engine_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ttfilt" or name.startswith("ttfilt.")) and m is not None]


def _caches() -> dict:
    """The engine's lru_cache objects by metric name (seen through a span wrapper)."""
    from ttfilt import filtmod, gf2

    fns = {"filtmod.realize": filtmod.realize, "filtmod.realize_sum": filtmod.realize_sum,
           "gf2.perp_cache": gf2._perp_cached, "gf2.equivariance_rows_cache": gf2._equivariance_rows_cached}
    return {name: fn if hasattr(fn, "cache_info") else fn.__wrapped__ for name, fn in fns.items()}


def clear_caches() -> None:
    for fn in _caches().values():
        fn.cache_clear()


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """(hits, lookups, current size) per engine cache."""
    out = {}
    for name, fn in _caches().items():
        info = fn.cache_info()
        out[name] = (info.hits, info.hits + info.misses, info.currsize)
    return out


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        # plain functions and lru_cache wrappers defined in this module
        if getattr(value, "__module__", None) == module.__name__ and callable(value) \
                and not isinstance(value, type):
            yield attr, value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query_id = -1
        self.gf2_time = 0.0
        self.gf2_depth = 0
        self.gf2_calls: dict[str, list[int]] = {}
        self.rref_bits = 0
        self.inverse_tests = 0
        self.inverse_hits = 0
        self.filt_constructed = 0
        self.filt_layers = 0
        self._active: dict[str, int] = defaultdict(int)
        self._replaced: set[int] = set()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, dims=None):
        spans, stack, active = self.spans, self.stack, self._active

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.query_id, 0.0, active[name] == 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            active[name] += 1
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if dims is not None:
                    rec[DIMS] = dims(args, out)
                return out
            finally:
                rec[END] = end = perf_counter()
                active[name] -= 1
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]

        wrapper.__wrapped__ = fn
        return wrapper

    def _gf2(self, name: str, fn, after=None):
        calls = self.gf2_calls.setdefault(name, [0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if self.gf2_depth:
                out = fn(*args, **kwargs)
            else:
                self.gf2_depth = 1
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self.gf2_depth = 0
                    self.gf2_time += dt
                    if stack:
                        spans[stack[-1]][CHILD] += dt
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _rref_after(self, args, out):
        self.rref_bits += args[0].rows * args[0].cols

    def _inverse_after(self, args, out):
        if self.stack and self.spans[self.stack[-1]][NAME] == "chains.minimize":
            self.inverse_tests += 1
            self.inverse_hits += out is not None

    def _filt_post_init(self, fn):
        def wrapper(obj):
            self.filt_constructed += 1
            self.filt_layers += len(obj.layers)
            return fn(obj)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import ttfilt.cli  # noqa: F401  (load every module before rebinding)
        import ttfilt.samples  # noqa: F401
        from ttfilt import filtmod, gf2

        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"ttfilt.{layer}"]
            skip = _NO_SPAN.get(layer, set())
            for attr, fn in _public_functions(module):
                if attr not in skip:
                    replace[id(fn)] = self._span(f"{layer}.{attr}", fn, _DIMS.get(f"{layer}.{attr}"))
        for attr, fn in _public_functions(gf2):
            replace[id(fn)] = self._gf2(f"gf2.{attr}", fn)
        for cls_name in _GF2_CLASSES:
            cls = getattr(gf2, cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("__") and attr != "__post_init__":
                    continue
                if isinstance(raw, staticmethod):
                    fn = raw.__func__
                    wrap = staticmethod(self._gf2(f"gf2.{cls_name}.{attr}", fn))
                elif isinstance(raw, types.FunctionType):
                    after = {"rref": self._rref_after, "inverse": self._inverse_after}.get(attr)
                    wrap = self._gf2(f"gf2.{cls_name}.{attr}", raw, after)
                else:
                    continue        # properties and class attributes
                setattr(cls, attr, wrap)
        filtmod.FiltModule.__post_init__ = self._filt_post_init(filtmod.FiltModule.__post_init__)
        self._replaced = set(replace)
        for module in _engine_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def unwrapped_references(self) -> list[str]:
        """Module attributes still bound to the original of a wrapped function."""
        return [f"{m.__name__}.{attr}" for m in _engine_modules()
                for attr, value in vars(m).items() if id(value) in self._replaced]

    # -- output --------------------------------------------------------------

    def write_spans(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tquery\tname\tstart_us\tend_us\n")
            for i, r in enumerate(self.spans):
                fh.write(f"{i}\t{r[PARENT]}\t{r[QUERY]}\t{r[NAME]}\t"
                         f"{(r[START] - t0) * 1e6:.1f}\t{(r[END] - t0) * 1e6:.1f}\n")

    def metrics(self, caches: dict) -> dict[str, float]:
        """The per-layer metrics, by name (see README.md for definitions)."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        dims: dict[str, float] = defaultdict(float)
        spans = self.spans
        for r in spans:
            name, dur = r[NAME], r[END] - r[START]
            calls[name] += 1
            self_s[name] += dur - r[CHILD]
            if r[OUTER]:
                busy[name] += dur
            parent = spans[r[PARENT]][NAME] if r[PARENT] >= 0 else ""
            d = r[DIMS]
            if name == "chains.minimize" and d is not None:
                dims["chains.minimize.dim_in"] += d[0]
                dims["chains.minimize.dim_out"] += d[1]
                busy[f"chains.minimize.{d[2]}"] += dur
            elif name == "chains.tensor_complex" and d is not None:
                dims["chains.tensor_complex.out_dim"] += d
                if parent == "functors.rwz":
                    dims["functors.rwz.tensor_dim"] += d
            elif name == "chains.injres_trunc" and parent == "functors.rwz":
                dims["functors.rwz.trunc_len"] += d
            elif name == "functors.rwz" and d is not None:
                dims["functors.rwz.kept_dim"] += d
            elif name == "spectrum.supp_detail" and d is not None:
                dims["spectrum.supp_detail.input_dim"] += d
            elif name == "filtmod.decompose" and d is not None:
                dims["filtmod.decompose.summands"] += d
            elif name == "filtmod.hom_basis" and parent == "filtmod.decompose":
                dims["filtmod.decompose.hom_basis_calls"] += 1
        g = {name: c[0] for name, c in self.gf2_calls.items()}

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "shell.parse.self_s": self_s["shell.parse"],
            "shell.evaluate.self_s": self_s["shell.evaluate"],
            "shell.deserialize.self_s": self_s["shell.deserialize"],
            "shell.run.self_s": self_s["shell.run"],
            "motives.to_filtered.calls": calls["motives.to_filtered"],
            "motives.to_filtered.self_s": self_s["motives.to_filtered"],
            "spectrum.supp.calls": calls["spectrum.supp"],
            "spectrum.supp_detail.self_s": self_s["spectrum.supp_detail"],
            "spectrum.supp_detail.input_dim": dims["spectrum.supp_detail.input_dim"],
            "functors.tfgt.busy_s": busy["functors.tfgt"],
            "functors.tfgt.self_s": self_s["functors.tfgt"],
            "functors.rwz.busy_s": busy["functors.rwz"],
            "functors.rwz.trunc_len": dims["functors.rwz.trunc_len"],
            "functors.rwz.tensor_dim": dims["functors.rwz.tensor_dim"],
            "functors.rwz.kept_dim": dims["functors.rwz.kept_dim"],
            "functors.rwz.kept_ratio": ratio(dims["functors.rwz.kept_dim"], dims["functors.rwz.tensor_dim"]),
            "functors.gr_complex.busy_s": busy["functors.gr_complex"],
            "functors.hom_DE.busy_s": busy["functors.hom_DE"],
            "chains.tensor_complex.calls": calls["chains.tensor_complex"],
            "chains.tensor_complex.busy_s": busy["chains.tensor_complex"],
            "chains.tensor_complex.out_dim": dims["chains.tensor_complex.out_dim"],
            "chains.minimize.calls": calls["chains.minimize"],
            "chains.minimize.busy_s": busy["chains.minimize"],
            "chains.minimize.self_s": self_s["chains.minimize"],
            "chains.minimize.dim_in": dims["chains.minimize.dim_in"],
            "chains.minimize.dim_out": dims["chains.minimize.dim_out"],
            "chains.minimize.inverse_tests": self.inverse_tests,
            "chains.minimize.inverse_hits": self.inverse_hits,
            "chains.minimize.inverse_hit_ratio": ratio(self.inverse_hits, self.inverse_tests),
            "chains.minimize.c2.busy_s": busy["chains.minimize.c2"],
            "chains.minimize.filt.busy_s": busy["chains.minimize.filt"],
            "filtmod.decompose.calls": calls["filtmod.decompose"],
            "filtmod.decompose.busy_s": busy["filtmod.decompose"],
            "filtmod.decompose.self_s": self_s["filtmod.decompose"],
            "filtmod.decompose.summands": dims["filtmod.decompose.summands"],
            "filtmod.hom_basis.calls": calls["filtmod.hom_basis"],
            "filtmod.decompose.hom_basis_calls": dims["filtmod.decompose.hom_basis_calls"],
            "filtmod.decompose.summands_per_hom_basis": ratio(dims["filtmod.decompose.summands"],
                                                              dims["filtmod.decompose.hom_basis_calls"]),
            "filtmod.FiltModule.constructed": self.filt_constructed,
            "filtmod.FiltModule.layers": self.filt_layers,
            "gf2.self_s": self.gf2_time,
            "gf2.rref.calls": g.get("gf2.BitMatrix.rref", 0),
            "gf2.rref.bits": self.rref_bits,
            "gf2.mul.calls": g.get("gf2.BitMatrix.mul", 0),
            "gf2.inverse.calls": g.get("gf2.BitMatrix.inverse", 0),
            "gf2.kernel.calls": g.get("gf2.BitMatrix.kernel", 0),
            "gf2.BitMatrix.constructed": g.get("gf2.BitMatrix.__post_init__", 0),
        }
        for name in ("filtmod.realize", "filtmod.realize_sum", "gf2.perp_cache", "gf2.equivariance_rows_cache"):
            hits, lookups, size = caches[name]
            m[f"{name}.hits"] = hits
            m[f"{name}.lookups"] = lookups
            m[f"{name}.hit_ratio"] = ratio(hits, lookups)
        m["filtmod.realize_sum.size"] = caches["filtmod.realize_sum"][2]
        return m


def _minimize_dims(args, out):
    x = args[0]
    return x.total_dim(), out.complex.total_dim(), x.kind


def _total_dim_out(args, out):
    return out.total_dim()


_DIMS = {
    "chains.minimize": _minimize_dims,
    "chains.tensor_complex": _total_dim_out,
    "chains.injres_trunc": lambda args, out: args[0],
    "functors.rwz": _total_dim_out,
    "spectrum.supp_detail": lambda args, out: args[0].total_dim(),
    "filtmod.decompose": lambda args, out: len(out.sum.labels),
}
