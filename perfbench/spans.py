"""Tracing for the benchmark's traced run: spans and counts per layer.

The layers are the modules of the ``unitpoly`` package. The tracer wraps
the functions listed in ``TARGETS`` at every place they are bound: each
module attribute that holds the original function (``evaluate`` is bound
in ``poly``, ``solve``, ``quasigroup``, ``cli`` and the package itself),
or the class attribute for methods. Nothing under ``src/`` changes, and
``restore`` puts every original back.

A span is recorded only inside a request, that is, a call the runner
issues through ``Tracer.request``. Spans stay in memory as
``(name, start_ns, end_ns, parent, request)`` tuples and are written out
once, after the run. A span's self time is its duration minus that of
its child spans; calls are single-threaded and nested, so children never
overlap.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import sys
import time
import weakref

# (layer, metric name, module, class or None, attribute)
TARGETS = (
    ("context", "context.Context", "context", "Context", "__init__"),
    ("poly", "poly.reduce", "poly", None, "reduce"),
    ("poly", "poly.IntPoly.mul", "poly", "IntPoly", "__mul__"),
    ("poly", "poly.evaluate", "poly", None, "evaluate"),
    ("poly", "poly.ReducedPoly.init", "poly", "ReducedPoly", "__post_init__"),
    ("poly", "poly.ideal_generators", "poly", None, "ideal_generators"),
    ("poly", "poly.parse_format", "poly", None, "parse_poly"),
    ("poly", "poly.parse_format", "poly", None, "format_poly"),
    ("solve", "solve.interpolate", "solve", None, "interpolate"),
    ("solve", "solve.invert_permutation", "solve", None, "invert_permutation"),
    ("solve", "solve.multiplicative_inverse", "solve", None, "multiplicative_inverse"),
    ("solve", "solve.interpolate_at_nodes", "solve", None, "interpolate_at_nodes"),
    ("solve", "solve.multiply_reduced", "solve", None, "multiply_reduced"),
    ("solve", "solve.echelon", "solve", None, "_echelon"),
    ("solve", "solve.back_substitution", "solve", None, "_solve_triangular"),
    ("residue", "residue.unit_inverse", "residue", None, "unit_inverse"),
    ("residue", "residue.hensel_roots", "residue", None, "hensel_roots"),
    ("quasigroup", "quasigroup.spec_build", "quasigroup", "QuasigroupSpec", "__init__"),
    ("quasigroup", "quasigroup.spec_build", "quasigroup", "QuasigroupSpec", "from_dict"),
    ("quasigroup", "quasigroup.apply", "quasigroup", "QuasigroupSpec", "apply"),
    ("quasigroup", "quasigroup.adjoint", "quasigroup", "QuasigroupSpec", "adjoint"),
    ("census", "census.census_report", "census", None, "census_report"),
    ("census", "census.keller_identity_check", "census", None, "keller_identity_check"),
    ("cli", "cli.run", "cli", None, "run"),
)
LAYERS = ("context", "poly", "solve", "residue", "quasigroup", "census", "cli")
FUNCTIONS = tuple(dict.fromkeys(name for _, name, *_ in TARGETS))
LAYER_OF = {name: layer for layer, name, *_ in TARGETS}
# functions whose call counts an optimisation is likely to change
CALL_COUNTED = (
    "poly.reduce", "poly.IntPoly.mul", "poly.evaluate", "poly.ReducedPoly.init",
    "solve.echelon", "residue.unit_inverse", "quasigroup.spec_build", "cli.run",
)
# the main costs of set-up, reported as shares of set-up time
SETUP_FUNCTIONS = ("poly.ideal_generators", "solve.invert_permutation", "solve.echelon")
QUERY_SPANS = ("quasigroup.apply", "quasigroup.adjoint")

# counts computed from call arguments or results: (name, unit, divisor), the
# divisor being timed operations, calls of the named spans, or another count
COUNTS = (
    ("poly.reduce.lowering_steps", "count/op", "op"),
    ("poly.IntPoly.mul.coeff_products", "count/op", "op"),
    ("poly.evaluate.horner_steps", "count/op", "op"),
    ("solve.echelon.cells", "count/op", "op"),
    ("solve.interpolate_at_nodes.solutions", "count/call", "solve.interpolate_at_nodes"),
    ("solve.interpolate_at_nodes.budget_exceeded", "count/call", "solve.interpolate_at_nodes"),
    ("residue.unit_inverse.per_adjoint", "count", "quasigroup.adjoint.unit_product"),
    ("quasigroup.evaluate.per_query", "count", QUERY_SPANS),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order. Lower is
    better for each, except ``poly.ideal_generators.hit_ratio``."""
    out = [(f"{name}.self_pct", "%") for name in FUNCTIONS]
    out += [(f"{layer}.self_pct", "%") for layer in LAYERS]
    out += [(f"{name}.calls", "count/op") for name in CALL_COUNTED]
    out += [(name, unit) for name, unit, _ in COUNTS]
    out.append(("poly.ideal_generators.hit_ratio", "ratio"))
    out += [(f"setup.{layer}.self_pct", "%") for layer in LAYERS]
    out += [(f"setup.{name}.self_pct", "%") for name in SETUP_FUNCTIONS]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _degree_over_cap(args, kwargs) -> int:
    poly, ctx = args[0], args[1] if len(args) > 1 else kwargs["ctx"]
    coeffs = getattr(poly, "coeffs", poly)
    length = len(coeffs)
    while length and coeffs[length - 1] & ctx.mask == 0:
        length -= 1
    return max(0, length - 1 - ctx.d)


def _length(poly) -> int:
    return len(getattr(poly, "coeffs", (poly,)))


class Tracer:
    """Records spans and counts around the wrapped functions."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, request id)
        self.requests = []  # (phase, kind) by request id
        self.phase = "setup"
        self.stack = []
        self.open = collections.Counter()
        self.counts = {"setup": collections.Counter(), "loop": collections.Counter()}
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self._contexts_seen = weakref.WeakSet()
        self._before = {
            "poly.reduce": lambda a, k: self._count("poly.reduce.lowering_steps",
                                                    _degree_over_cap(a, k)),
            "poly.IntPoly.mul": lambda a, k: self._count("poly.IntPoly.mul.coeff_products",
                                                         _length(a[0]) * _length(a[1])),
            "poly.evaluate": self._before_evaluate,
            "poly.ideal_generators": self._before_generators,
            "solve.echelon": lambda a, k: self._count(
                "solve.echelon.cells", len(a[0]) * (len(a[0][0]) if a[0] else 0)),
            "residue.unit_inverse": self._before_unit_inverse,
            "quasigroup.adjoint": self._before_adjoint,
        }
        self._after = {"solve.interpolate_at_nodes": self._after_nodes}

    # -- counting hooks ---------------------------------------------------

    def _count(self, key, amount=1):
        self.counts[self.phase][key] += amount

    def _before_evaluate(self, args, kwargs):
        self._count("poly.evaluate.horner_steps", _length(args[0]))
        if any(self.open[name] for name in QUERY_SPANS):
            self._count("quasigroup.evaluate.per_query")

    def _before_unit_inverse(self, args, kwargs):
        if self.open["quasigroup.adjoint"]:
            self._count("residue.unit_inverse.per_adjoint")

    def _before_adjoint(self, args, kwargs):
        if getattr(getattr(args[0], "mode", None), "value", None) == "UNIT_PRODUCT":
            self._count("quasigroup.adjoint.unit_product")

    def _before_generators(self, args, kwargs):
        ctx = args[0] if args else kwargs["ctx"]
        if ctx in self._contexts_seen:
            self._count("poly.ideal_generators.hits")
        else:
            self._contexts_seen.add(ctx)

    def _after_nodes(self, result):
        if isinstance(result, list):
            self._count("solve.interpolate_at_nodes.solutions", len(result))
        elif type(result).__name__ == "BudgetExceeded":
            self._count("solve.interpolate_at_nodes.budget_exceeded")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer, spans, stack, opened = self, self.spans, self.stack, self.open
        before, after = self._before.get(name), self._after.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a request: harness work, not recorded
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            opened[name] += 1
            outcome = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                spans[index] = (name, start, end, parent, tracer.request_id)
                if after is not None:
                    after(outcome)

        return wrapper

    def install(self, package) -> None:
        """Wrap every target at every binding site inside ``package``."""
        modules = package_modules(package)
        for _, name, module_name, class_name, attr in TARGETS:
            try:
                module = importlib.import_module(f"{package.__name__}.{module_name}")
            except ImportError:
                module = None
            owner = getattr(module, class_name, None) if class_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing = ".".join(filter(None, (module_name, class_name, attr)))
                if missing not in self.absent:  # install runs once per traced phase
                    self.absent.append(missing)
                continue
            if class_name:
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._patches.append((owner, key, raw))
                        setattr(owner, key, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patches.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- requests -----------------------------------------------------------

    @property
    def request_id(self) -> int:
        return len(self.requests) - 1

    def request(self, kind, call, *args):
        """Run one timed call as a request: the root span of its tree."""
        self.requests.append((self.phase, kind))
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = ("request", start, end, -1, self.request_id)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per phase: total request ns, self ns by name, outermost calls by name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {phase: [0, collections.Counter(), collections.Counter(), 0]
               for phase in ("setup", "loop")}
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            entry = out[self.requests[request][0]]
            if parent < 0:
                entry[0] += end - start
                entry[3] += 1
            entry[1][name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                entry[2][name] += 1
        return out

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        times = self.self_times()
        loop_ns, loop_self, loop_calls, ops = times["loop"]
        setup_ns, setup_self, _, _ = times["setup"]
        counts = self.counts["loop"]
        pct = lambda part, whole: 100.0 * part / whole if whole else 0.0
        per = lambda part, whole: part / whole if whole else 0.0
        values = {}
        for name in FUNCTIONS:
            values[f"{name}.self_pct"] = pct(loop_self[name], loop_ns)
        for layer in LAYERS:
            own = sum(loop_self[name] for name in FUNCTIONS if LAYER_OF[name] == layer)
            values[f"{layer}.self_pct"] = pct(own, loop_ns)
        for name in CALL_COUNTED:
            values[f"{name}.calls"] = per(loop_calls[name], ops)
        for name, _, base in COUNTS:
            if base == "op":
                whole = ops
            elif isinstance(base, tuple):
                whole = sum(loop_calls[b] for b in base)
            else:
                whole = loop_calls[base] or counts[base]
            values[name] = per(counts[name], whole)
        values["poly.ideal_generators.hit_ratio"] = per(
            counts["poly.ideal_generators.hits"], loop_calls["poly.ideal_generators"])
        for layer in LAYERS:
            own = sum(setup_self[name] for name in FUNCTIONS if LAYER_OF[name] == layer)
            values[f"setup.{layer}.self_pct"] = pct(own, setup_ns)
        for name in SETUP_FUNCTIONS:
            values[f"setup.{name}.self_pct"] = pct(setup_self[name], setup_ns)
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def unit_inverse_us(self) -> float | None:
        """Mean microseconds per unit_inverse call in the timed loop."""
        _, loop_self, loop_calls, _ = self.self_times()["loop"]
        calls = loop_calls["residue.unit_inverse"]
        return loop_self["residue.unit_inverse"] / calls / 1000 if calls else None

    def write(self, path) -> None:
        """All spans as gzip CSV: request,phase,kind,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as out:
            out.write("request,phase,kind,name,start_ns,end_ns,parent\n")
            for name, start, end, parent, request in self.spans:
                phase, kind = self.requests[request]
                out.write(f"{request},{phase},{kind},{name},{start},{end},{parent}\n")


def package_modules(package) -> list:
    """The package and its loaded submodules: every place a name is bound."""
    prefix = package.__name__ + "."
    return [package] + [module for key, module in sorted(sys.modules.items())
                        if key.startswith(prefix) and module is not None]
