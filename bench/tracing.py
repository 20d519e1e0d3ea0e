"""Outside-in tracing of the qhflag layers.

The tracer wraps the public functions and methods listed in ``SPANNED``
by patching them in every ``qhflag`` module namespace that binds them, so
calls made through ``from ... import`` names are seen too.  Each wrapped
call records a span (name, start, end, parent span, operation id) in
flat in-memory arrays; ``write`` saves them when the run ends.  The hot
leaves in ``COUNTED`` are only counted, because a span per call would cost
more than the work it measures.  ``uninstall`` puts every original
attribute back.

Per-layer numbers are computed from the spans after the traced round:

* a layer's self time is the duration of its spans minus the part of it
  covered by their child spans.  Helpers that are not wrapped (private
  functions, cached lookups such as ``weyl.simple_reflection``) are charged
  to the wrapped span that called them;
* a ``*_s`` metric of one entry point is the inclusive time of its
  outermost spans, so nested calls of the same group are not counted twice;
* a ``*_distinct_share`` is the number of distinct argument tuples divided
  by the number of calls; both base counts are reported beside it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Dict, List, Tuple

# Wrapped entry points, "module.function" or "module.Class.method": the
# public names the workloads reach, directly or from another layer.  The
# layer of a span is its module.
SPANNED = (
    "rootsys.build_root_system",
    "rootsys.parse_system_id",
    "rootsys.RootSystem.coroot_of",
    "weyl.enumerate_group",
    "weyl.multiply",
    "weyl.reflection",
    "weyl.word_to_element",
    "weyl.inversion_set",
    "weyl.is_minimal_representative",
    "weyl.parabolic_decompose",
    "weyl.full_decomposition",
    "weyl.longest_element",
    "weyl.WeylElt.word",
    "qchev.QuantumFlagRing.__init__",
    "qchev.QuantumFlagRing.element_from_word",
    "qchev.QuantumFlagRing.quantum_product",
    "qchev.QuantumFlagRing.structure_constant",
    "qchev.qclass_to_json",
    "pwlift.pw_lift",
    "pwlift.minimal_representatives",
    "pwlift.quantum_degree",
    "pwlift.qhp_structure_constant",
    "pwlift.qhp_product",
    "grading.canonical_order",
    "grading.OrderedParabolic.__init__",
    "grading.OrderedParabolic.gr_weyl",
    "grading.OrderedParabolic.gr",
    "verify.run_suite",
    "cli.main",
)

COUNTED = (
    "rootsys.RootSystem.is_positive_root",
    "weyl.WeylElt.__init__",
    "verify.Report.record",
)

# Entry points whose distinct-argument share is measured.
DISTINCT = ("weyl.reflection", "weyl.enumerate_group", "pwlift.pw_lift",
            "pwlift.minimal_representatives")

# Inclusive-time groups: metric name -> the entry points it covers.
GROUPS = {
    "rootsys.build_s": ("rootsys.build_root_system", "rootsys.parse_system_id"),
    "weyl.word_s": ("weyl.WeylElt.word",),
    "weyl.enumerate_s": ("weyl.enumerate_group",),
    "qchev.ring_init_s": ("qchev.QuantumFlagRing.__init__",),
    "qchev.product_s": ("qchev.QuantumFlagRing.quantum_product",),
    "qchev.format_s": ("qchev.qclass_to_json",),
    "qchev.structure_constant_s": ("qchev.QuantumFlagRing.structure_constant",),
    "pwlift.lift_s": ("pwlift.pw_lift",),
    "pwlift.minrep_s": ("pwlift.minimal_representatives",),
    "pwlift.qhp_product_s": ("pwlift.qhp_product",),
    "grading.order_build_s": ("grading.canonical_order",
                              "grading.OrderedParabolic.__init__"),
    "grading.gr_weyl_s": ("grading.OrderedParabolic.gr_weyl",),
}

LAYERS = ("rootsys", "weyl", "qchev", "pwlift", "grading", "verify", "cli")

# Per-layer metric names in report order, with their units.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("rootsys.build_s", "s"),
    ("rootsys.self_s", "s"),
    ("rootsys.root_tests", "count"),
    ("weyl.self_s", "s"),
    ("weyl.elements_built", "count"),
    ("weyl.multiply_calls", "count"),
    ("weyl.reflection_calls", "count"),
    ("weyl.reflection_distinct", "count"),
    ("weyl.reflection_distinct_share", "ratio"),
    ("weyl.word_s", "s"),
    ("weyl.enumerate_calls", "count"),
    ("weyl.enumerate_distinct", "count"),
    ("weyl.enumerate_distinct_share", "ratio"),
    ("weyl.enumerate_s", "s"),
    ("weyl.enumerate_results", "count"),
    ("weyl.enumerate_elements_built", "count"),
    ("weyl.enumerate_yield", "ratio"),
    ("qchev.ring_init_s", "s"),
    ("qchev.self_s", "s"),
    ("qchev.product_calls", "count"),
    ("qchev.product_s", "s"),
    ("qchev.format_s", "s"),
    ("qchev.structure_constant_calls", "count"),
    ("qchev.structure_constant_s", "s"),
    ("pwlift.self_s", "s"),
    ("pwlift.lift_calls", "count"),
    ("pwlift.lift_distinct", "count"),
    ("pwlift.lift_distinct_share", "ratio"),
    ("pwlift.lift_s", "s"),
    ("pwlift.minrep_calls", "count"),
    ("pwlift.minrep_distinct", "count"),
    ("pwlift.minrep_distinct_share", "ratio"),
    ("pwlift.minrep_s", "s"),
    ("pwlift.qhp_product_s", "s"),
    ("grading.self_s", "s"),
    ("grading.order_build_s", "s"),
    ("grading.gr_weyl_calls", "count"),
    ("grading.gr_weyl_s", "s"),
    ("verify.self_s", "s"),
    ("verify.cases", "count"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def library_modules() -> List[object]:
    """Every loaded module of the qhflag package."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qhflag" or name.startswith("qhflag."))]


def _resolve(qualname: str):
    """(owner, attribute) for "module.func" or "module.Class.method"."""
    parts = qualname.split(".")
    owner = sys.modules["qhflag." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        from qhflag.rootsys import RootSystem
        from qhflag.weyl import WeylElt
        self._rs_type, self._weyl_type = RootSystem, WeylElt
        self.names: List[str] = list(SPANNED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.counts: Counter = Counter()
        self.distinct: Dict[str, set] = {name: set() for name in DISTINCT}
        self.enumerate_results = 0
        self.enumerate_built = 0
        self._patches: List[Tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for nid, qualname in enumerate(SPANNED):
            self._patch(qualname, self._span_wrapper(nid, qualname))
        for qualname in COUNTED:
            self._patch(qualname, self._count_wrapper(qualname))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, qualname: str, make) -> None:
        owner, attr = _resolve(qualname)
        original = vars(owner)[attr]
        if inspect.isgeneratorfunction(original):
            raise TypeError(f"{qualname} is a generator; a span would end early")
        wrapper = make(original)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in library_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _span_wrapper(self, nid: int, qualname: str):
        tracer = self
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def make(f):
            @functools.wraps(f)
            def span(*args, **kwargs):
                parent = tracer.current
                idx = len(starts)
                names.append(nid)
                parents.append(parent)
                ops.append(tracer.op)
                ends.append(0.0)
                tracer.current = idx
                starts.append(clock())
                try:
                    return f(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    tracer.current = parent
            if qualname == "weyl.enumerate_group":
                span = self._yield_recorder(span)
            if qualname in DISTINCT:
                span = self._distinct_recorder(qualname, f, span)
            return span
        return make

    def _distinct_recorder(self, qualname: str, f, span):
        """Record the normalised arguments of every call, then run ``span``."""
        seen = self.distinct[qualname]
        signature = inspect.signature(f)
        freeze = self._freeze

        @functools.wraps(f)
        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add(freeze(tuple(bound.arguments.values())))
            return span(*args, **kwargs)
        return recorded

    def _yield_recorder(self, span):
        """Count the elements returned against the elements built."""
        tracer, counts = self, self.counts

        @functools.wraps(span)
        def recorded(*args, **kwargs):
            built = counts["weyl.WeylElt.__init__"]
            result = span(*args, **kwargs)
            tracer.enumerate_results += len(result)
            tracer.enumerate_built += counts["weyl.WeylElt.__init__"] - built
            return result
        return recorded

    def _count_wrapper(self, qualname: str):
        counts = self.counts

        def make(f):
            @functools.wraps(f)
            def counted(*args, **kwargs):
                counts[qualname] += 1
                return f(*args, **kwargs)
            return counted
        return make

    def _freeze(self, value):
        """A hashable stand-in that is equal for equal arguments."""
        if isinstance(value, self._rs_type):
            return ("rs", value.key())
        if isinstance(value, self._weyl_type):
            return ("w", value.rs.key(), value.cmat)
        if isinstance(value, dict):
            return ("map",) + tuple(sorted(
                (self._freeze(k), self._freeze(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple, range)):
            return tuple(self._freeze(v) for v in value)
        return value

    # -- results -----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded so far (no overhead)."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(starts)
        layer_of = [q.split(".", 1)[0] for q in self.names]
        group_bit = [0] * len(self.names)
        bit_metric = {}
        for k, (metric, members) in enumerate(GROUPS.items()):
            bit_metric[1 << k] = metric
            for q in members:
                group_bit[self.names.index(q)] = 1 << k
        child = [0.0] * n
        ancestors = [0] * n  # bitmask of groups open above each span
        layer_self = dict.fromkeys(LAYERS, 0.0)
        inclusive = dict.fromkeys(GROUPS, 0.0)
        for i in range(n):
            p = parents[i]
            dur = ends[i] - starts[i]
            if p >= 0:
                child[p] += dur
                ancestors[i] = ancestors[p] | group_bit[names[p]]
            bit = group_bit[names[i]]
            if bit and not ancestors[i] & bit:
                inclusive[bit_metric[bit]] += dur
        for i in range(n):
            layer_self[layer_of[names[i]]] += ends[i] - starts[i] - child[i]
        calls = Counter(self.names[k] for k in names)

        def share(qualname: str) -> float:
            return (len(self.distinct[qualname]) / calls[qualname]
                    if calls[qualname] else 0.0)

        out: Dict[str, float] = dict(inclusive)
        out.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
        out.update({
            "rootsys.root_tests": self.counts["rootsys.RootSystem.is_positive_root"],
            "weyl.elements_built": self.counts["weyl.WeylElt.__init__"],
            "weyl.multiply_calls": calls["weyl.multiply"],
            "weyl.reflection_calls": calls["weyl.reflection"],
            "weyl.reflection_distinct": len(self.distinct["weyl.reflection"]),
            "weyl.reflection_distinct_share": share("weyl.reflection"),
            "weyl.enumerate_calls": calls["weyl.enumerate_group"],
            "weyl.enumerate_distinct": len(self.distinct["weyl.enumerate_group"]),
            "weyl.enumerate_distinct_share": share("weyl.enumerate_group"),
            "weyl.enumerate_results": self.enumerate_results,
            "weyl.enumerate_elements_built": self.enumerate_built,
            "weyl.enumerate_yield": (self.enumerate_results / self.enumerate_built
                                     if self.enumerate_built else 0.0),
            "qchev.product_calls": calls["qchev.QuantumFlagRing.quantum_product"],
            "qchev.structure_constant_calls":
                calls["qchev.QuantumFlagRing.structure_constant"],
            "pwlift.lift_calls": calls["pwlift.pw_lift"],
            "pwlift.lift_distinct": len(self.distinct["pwlift.pw_lift"]),
            "pwlift.lift_distinct_share": share("pwlift.pw_lift"),
            "pwlift.minrep_calls": calls["pwlift.minimal_representatives"],
            "pwlift.minrep_distinct":
                len(self.distinct["pwlift.minimal_representatives"]),
            "pwlift.minrep_distinct_share": share("pwlift.minimal_representatives"),
            "grading.gr_weyl_calls": calls["grading.OrderedParabolic.gr_weyl"],
            "verify.cases": self.counts["verify.Report.record"],
            "trace.spans": n,
        })
        return out

    def write(self, path: str) -> None:
        """Save the spans as gzip'd CSV: name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            t0, names = self.t0, self.names
            for i in range(len(self.span_start)):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n" % (
                    i, names[self.span_name[i]], self.span_start[i] - t0,
                    self.span_end[i] - t0, self.span_parent[i], self.span_op[i]))
