"""Spans and counters recorded around calls into the library's layers.

The collector is installed only in a traced run.  It replaces each traced
function in every ``nullcartan`` namespace that binds it (``frame_jets``, for
one, is bound in ``frame``, ``constructions``, ``cli`` and the package) and
each traced method on its class; the library itself is not edited.  Spans
nest on one stack, so a span's self time is its duration minus the time its
child spans took.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer name, module, attribute); "Class.method" names a method.
SPANS = (
    ("expr.parse", "nullcartan.expr", "parse"),
    ("expr.jet_eval", "nullcartan.expr", "jet_eval"),
    ("metric.inner_jet", "nullcartan.metric", "PseudoMetric.inner_jet"),
    ("metric.sequence_report", "nullcartan.metric", "PseudoMetric.sequence_report"),
    ("curve.vec_jet", "nullcartan.curve", "Curve.vec_jet"),
    ("curve.classify", "nullcartan.curve", "classify"),
    ("curve.pseudo_arc_reparam", "nullcartan.curve", "pseudo_arc_reparam"),
    ("curve.table_solve", "nullcartan.curve", "CumulativeIntegral.solve"),
    ("frame.frenet_residuals", "nullcartan.frame", "frenet_residuals"),
    ("constructions.frenet_vec_jet", "nullcartan.constructions", "FrenetCurve.vec_jet"),
    ("constructions.synthesize", "nullcartan.constructions", "synthesize"),
    ("constructions.bertrand", "nullcartan.constructions", "bertrand_check"),
    ("constructions.bertrand", "nullcartan.constructions", "bertrand_mate"),
    ("constructions.sphere", "nullcartan.constructions", "pseudo_spherical_test"),
    ("constructions.evolute", "nullcartan.constructions", "evolute"),
    ("constructions.involute", "nullcartan.constructions", "involute"),
    ("cli.load", "nullcartan.cli", "load_curve"),
    ("cli.render", "nullcartan.cli", "write_report"),
)

# lru caches read through cache_info(); they are module-wide, keyed by instance
CACHES = (
    ("constructions.state_cache", "FrenetCurve", "_state_at"),
    ("constructions.evolute_cache", "EvoluteCurve", "vec_jet"),
)


def _resolve(module, attr):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self._stack = []
        self.begin_op()

    # -- per-op records -------------------------------------------------------

    def begin_op(self):
        self._building = self._probing = 0
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self._framed = set()
        self._framed_refs = []
        self._cache_base = self._cache_info()

    def end_op(self):
        """Plain-data record of the op: spans, counters and cache deltas."""
        counts = dict(self.counts)
        for (name, hits, misses), (_, hits0, misses0) in zip(self._cache_info(),
                                                              self._cache_base):
            counts[f"{name}.hits"] = hits - hits0
            counts[f"{name}.misses"] = misses - misses0
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": counts, "root_s": self.root_s}

    @staticmethod
    def _cache_info():
        mod = sys.modules.get("nullcartan.constructions")
        if mod is None:
            return [(name, 0, 0) for name, _, _ in CACHES]
        infos = []
        for name, cls, attr in CACHES:
            info = getattr(mod, cls).__dict__[attr].cache_info()
            infos.append((name, info.hits, info.misses))
        return infos

    # -- spans ----------------------------------------------------------------

    def record(self, name, seconds):
        """A finished root span measured by the caller (e.g. an import)."""
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds
        self.root_s += seconds

    def wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.root_s += dt

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every traced name in every loaded nullcartan namespace."""
        for name, module, attr in SPANS:
            if module in sys.modules:
                self._replace(module, attr, lambda fn, name=name: self.wrap(name, fn))
        self._replace("nullcartan.frame", "frame_jets", self._wrap_frame_jets)
        self._replace("nullcartan.curve", "CumulativeIntegral.__init__",
                      self._wrap_table_build)
        self._replace("nullcartan.curve", "_MonotoneReparamCurve.__init__",
                      self._wrap_monotone_init)
        for cls in ("ReparametrizedCurve", "ArcLengthCurve"):
            self._replace("nullcartan.curve", f"{cls}._rate_square", self._wrap_probe)
        self._replace("nullcartan.constructions", "FrenetCurve._rk4_step",
                      lambda fn: self._wrap_count("constructions.rk4_steps", fn))

    def _replace(self, module, attr, make):
        owner, name = _resolve(module, attr)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapped = make(original)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nullcartan" or mod_name.startswith("nullcartan."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap_count(self, counter, fn):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_frame_jets(self, fn):
        """frame_jets span plus repeats: calls at an (object, t) already
        framed in the same op."""
        traced = self.wrap("frame.frame_jets", fn)

        def frame_jets(curve, t, *args, **kwargs):
            key = (id(curve), float(t))
            if key in self._framed:
                self.counts["frame.frame_jets.repeats"] += 1
            else:
                self._framed.add(key)
                self._framed_refs.append(curve)  # keeps id() unique within the op
            return traced(curve, t, *args, **kwargs)

        return frame_jets

    def _wrap_table_build(self, fn):
        """CumulativeIntegral construction: span, node count and the integrand
        evaluations made while building."""
        traced = self.wrap("curve.table_build", fn)

        def build(table, f, a, b, intervals=512):
            self.counts["curve.table_nodes"] += intervals + 1

            def integrand(t):
                if self._building:
                    self.counts["curve.integrand_evals"] += 1
                return f(t)

            self._building += 1
            try:
                return traced(table, integrand, a, b, intervals)
            finally:
                self._building -= 1

        return build

    def _wrap_monotone_init(self, fn):
        def init(*args, **kwargs):
            self._probing += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._probing -= 1

        return init

    def _wrap_probe(self, fn):
        """Rate evaluations of a monotone reparametrization's positivity probe,
        which precedes (and is not part of) its table build."""
        def rate_square(*args, **kwargs):
            if self._probing and not self._building:
                self.counts["curve.integrand_evals"] += 1
            return fn(*args, **kwargs)

        return rate_square
