"""Span and counter recording around the public functions of quivalg.

The tracer wraps functions from outside the package: every module
namespace of quivalg that holds a listed function gets the wrapper in
its place, so calls made inside the package are traced as well as
calls from the benchmark.  Methods are wrapped on their class, which
every importer shares.

A span records a name, a start, an end and the span that was open when
it started.  Spans are kept in flat arrays until the traced pass ends;
aggregation then derives call counts, inclusive times, layer self times
(span time minus the time covered by child spans) and the stages of the
verify-paper pipeline.  The layer of a span is the part of its name
before the first dot.
"""

import time
from array import array
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# (layer, module, attribute); a dotted attribute names a method
TRACED: List[Tuple[str, str, str]] = [
    ("verify", "quivalg.verify", "run_verification"),
    ("endquiver", "quivalg.endquiver", "end_as_quiver_algebra"),
    ("endquiver", "quivalg.endquiver", "minimize_relations"),
    ("endquiver", "quivalg.endquiver", "presentation_dimension_check"),
    ("algebra", "quivalg.algebra", "build_algebra"),
    ("algebra", "quivalg.algebra", "build_dimension_only"),
    ("endos", "quivalg.endos", "EndStructure.__init__"),
    ("endos", "quivalg.endos", "decompose"),
    ("homological", "quivalg.homological", "tau2"),
    ("homological", "quivalg.homological", "ext_dim"),
    ("homological", "quivalg.homological", "global_dimension"),
    ("homological", "quivalg.homological", "dominant_dimension"),
    ("homological", "quivalg.homological", "cartan_determinant"),
    ("homological", "quivalg.homological", "is_generator_cogenerator"),
    ("homological", "quivalg.homological", "cluster_tilting_verdict"),
    ("modules", "quivalg.modules", "hom_basis"),
    ("modules", "quivalg.modules", "is_isomorphic"),
    ("modules", "quivalg.modules", "projective_cover"),
    ("modules", "quivalg.modules", "injective_envelope"),
    ("modules", "quivalg.modules", "kernel"),
    ("modules", "quivalg.modules", "cokernel"),
    ("modules", "quivalg.modules", "direct_sum"),
    ("linalg", "quivalg.linalg", "rref"),
    ("linalg", "quivalg.linalg", "kernel_basis"),
    ("linalg", "quivalg.linalg", "solve_left"),
    ("linalg", "quivalg.linalg", "determinant"),
    ("linalg", "quivalg.linalg", "invert"),
    ("linalg", "quivalg.linalg", "SpanSolver.insert"),
    ("linalg", "quivalg.linalg", "SpanSolver.coords"),
    ("textio", "quivalg.textio", "parse_algebra"),
    ("textio", "quivalg.textio", "parse_module"),
]

# counted on every call, without a span (millions of calls per pass)
COUNTED: List[Tuple[str, str, str]] = [
    ("linalg", "quivalg.linalg", "rat"),
]

LAYERS = ["verify", "endquiver", "algebra", "endos", "homological", "modules", "linalg", "textio"]

# the twelve stages of run_verification, each opened by the first call
# of a marker span directly under the run_verification span; the
# reference check opens when the minimized-dimension check returns
STAGES: List[Tuple[str, str, str]] = [
    ("translates", "", "start"),
    ("is_generator_cogenerator", "homological.is_generator_cogenerator", "start"),
    ("EndStructure", "endos.EndStructure", "start"),
    ("end_as_quiver_algebra", "endquiver.end_as_quiver_algebra", "start"),
    ("gldim", "homological.global_dimension", "start"),
    ("domdim", "homological.dominant_dimension", "start"),
    ("cartan", "homological.cartan_determinant", "start"),
    ("minimize_relations", "endquiver.minimize_relations", "start"),
    ("minimized_dim_check", "endquiver.presentation_dimension_check", "start"),
    ("reference_check", "endquiver.presentation_dimension_check", "end"),
    ("ext_dim", "homological.ext_dim", "start"),
    ("cluster_tilting_verdict", "homological.cluster_tilting_verdict", "start"),
]


def span_name(layer: str, attr: str) -> str:
    """EndStructure.__init__ is reported as the EndStructure constructor."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    return "%s.%s" % (layer, attr)


def _resolve(sys_modules, module: str, attr: str):
    owner = sys_modules[module]
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Records spans and counters; install() binds the wrappers."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, int] = {}
        self.originals: Dict[str, object] = {}
        self.wrappers: Dict[str, object] = {}
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Return fn wrapped in a span called name.

        after(args, kwargs, result) and on_error(exc) run outside the
        timed interval of the span.
        """
        nid = self._name_id(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------

    def install(self, sys_modules) -> None:
        """Bind wrappers in every quivalg namespace, and count scalars."""
        errors = sys_modules["quivalg.errors"]
        not_finite = errors.NotFiniteDimensionalError

        def count_not_finite(exc):
            if isinstance(exc, not_finite):
                self.bump("algebra.not_finite")

        def after_probe(args, kwargs, result):
            if result is None:
                self.bump("algebra.probe_aborted")

        def after_minimize(args, kwargs, result):
            relations = args[1] if len(args) > 1 else kwargs["relations"]
            self.bump("endquiver.minimize.accepted", len(relations) - len(result))

        hooks = {
            "algebra.build_algebra": (None, count_not_finite),
            "algebra.build_dimension_only": (after_probe, count_not_finite),
            "endquiver.minimize_relations": (after_minimize, None),
        }
        for layer, module, attr in TRACED:
            name = span_name(layer, attr)
            after, on_error = hooks.get(name, (None, None))
            owner, leaf = _resolve(sys_modules, module, attr)
            orig = getattr(owner, leaf)
            self._bind(sys_modules, name, owner, leaf, orig, self.wrap(name, orig, after, on_error))
        for layer, module, attr in COUNTED:
            name = "%s.%s.calls" % (layer, attr)
            owner, leaf = _resolve(sys_modules, module, attr)
            orig = getattr(owner, leaf)
            self._bind(sys_modules, name, owner, leaf, orig, self._counting(name, orig))
        self._count_fractions(sys_modules)

    def _counting(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _bind(self, sys_modules, name, owner, leaf, orig, wrapper) -> None:
        self.originals[name] = orig
        self.wrappers[name] = wrapper
        if isinstance(owner, type):
            setattr(owner, leaf, wrapper)
            self._restore.append(lambda: setattr(owner, leaf, orig))
            return
        for modname, mod in list(sys_modules.items()):
            if mod is None or not (modname == "quivalg" or modname.startswith("quivalg.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append(lambda m=mod, k=key: setattr(m, k, orig))

    def _count_fractions(self, sys_modules) -> None:
        """Count constructions of the scalar type when it is Fraction.

        Every Fraction, arithmetic results included, is made through
        Fraction.__new__; a counting __new__ sees each of them.
        """
        key = "scalar.fraction_new.calls"
        counts = self.counts
        if sys_modules["quivalg.linalg"].QQ is not Fraction:
            counts[key] = -1  # another scalar type, not counted
            return
        counts[key] = 0
        orig_new = Fraction.__dict__["__new__"]
        orig_fn = orig_new.__func__

        def counting_new(cls, numerator=0, denominator=None, *, _normalize=True):
            counts[key] += 1
            return orig_fn(cls, numerator, denominator, _normalize=_normalize)

        Fraction.__new__ = staticmethod(counting_new)
        self._restore.append(lambda: setattr(Fraction, "__new__", orig_new))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- checks ---------------------------------------------------------

    def unwrapped_bindings(self, sys_modules) -> List[str]:
        """Namespaces of quivalg that still hold an original function."""
        missing = []
        originals = {id(v): k for k, v in self.originals.items()}
        for modname, mod in sorted(sys_modules.items()):
            if mod is None or not (modname == "quivalg" or modname.startswith("quivalg.")):
                continue
            for key, val in vars(mod).items():
                name = originals.get(id(val))
                if name is not None:
                    missing.append("%s.%s (%s)" % (modname, key, name))
        for layer, module, attr in TRACED:
            if "." in attr:
                owner, leaf = _resolve(sys_modules, module, attr)
                if getattr(owner, leaf) is not self.wrappers[span_name(layer, attr)]:
                    missing.append("%s.%s" % (module, attr))
        return missing

    def layers_seen(self) -> List[str]:
        """Layers with at least one recorded span."""
        return sorted({self.names[nid].split(".", 1)[0] for nid in set(self.name_of)})

    # -- aggregation ----------------------------------------------------

    def aggregate(self) -> Dict[str, float]:
        """Counts, inclusive times, layer self times and verify stages.

        A function's inclusive time sums its outermost calls only, so a
        call nested inside another call of the same function is not
        counted twice.  Self times of all layers, the benchmark's own
        'bench' layer included, add up to the root spans' total.
        """
        n = len(self.name_of)
        names = self.names
        layer_of = [nm.split(".", 1)[0] for nm in names]
        child = [0.0] * n
        durations = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            durations[i] = d
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        calls: Dict[str, int] = {nm: 0 for nm in names}
        incl: Dict[str, float] = {nm: 0.0 for nm in names}
        self_s: Dict[str, float] = {}
        for i in range(n):
            nid = self.name_of[i]
            nm = names[nid]
            calls[nm] += 1
            lay = layer_of[nid]
            self_s[lay] = self_s.get(lay, 0.0) + durations[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                incl[nm] += durations[i]
        out: Dict[str, float] = {}
        for nm in names:
            out[nm + ".calls"] = calls[nm]
            out[nm + ".s"] = incl[nm]
        for lay, s in self_s.items():
            out[lay + ".self_s"] = s
        out["trace.root_s"] = sum(durations[i] for i in range(n) if self.parent[i] < 0)
        out.update(self.counts)
        trials = sum(
            1
            for i in range(n)
            if names[self.name_of[i]] == "algebra.build_dimension_only"
            and self.parent[i] >= 0
            and names[self.name_of[self.parent[i]]] == "endquiver.minimize_relations"
        )
        out["endquiver.minimize.trials"] = trials
        accepted = self.counts.get("endquiver.minimize.accepted", 0)
        out["endquiver.minimize.useful_ratio"] = accepted / trials if trials else 0.0
        out.update(self._stages())
        return out

    def _stages(self) -> Dict[str, float]:
        """Wall time of each run_verification stage, from its child spans."""
        names = self.names
        runs = [
            i for i in range(len(self.name_of)) if names[self.name_of[i]] == "verify.run_verification"
        ]
        out = {"verify.stage.%s.s" % st: 0.0 for st, _, _ in STAGES}
        for r in runs:
            children = [i for i in range(r + 1, len(self.name_of)) if self.parent[i] == r]
            bounds: List[Optional[float]] = []
            for st, marker, edge in STAGES:
                if not marker:
                    bounds.append(self.start[r])
                    continue
                hit = next((i for i in children if names[self.name_of[i]] == marker), None)
                if hit is None:
                    bounds.append(None)
                else:
                    bounds.append(self.start[hit] if edge == "start" else self.end[hit])
            bounds.append(self.end[r])
            for k, (st, _, _) in enumerate(STAGES):
                lo = bounds[k]
                hi = next((b for b in bounds[k + 1 :] if b is not None), None)
                if lo is not None and hi is not None:
                    out["verify.stage.%s.s" % st] += hi - lo
        return out
