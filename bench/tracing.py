"""Spans and counters recorded around the public functions of each layer.

Nothing here edits the program: :class:`Tracer` swaps module attributes that
the estimators and the harness look up at call time for timing wrappers, and
puts them back on exit.  Spans are aggregated in memory as they close, by
(span name, tag), where the tag is the estimator whose block is running
("setup" while contexts are built).  A span's self time is its duration minus
the durations of the spans it directly opened on the same thread.

Layer boundaries wrapped:

* rootfind  - ``estimators.exceedance_bounds`` (plus row classes per call);
* tails     - ``normal_tail``/``normal_cdf``, the two log densities and
  ``tails.marginal_tail_single`` as the estimators call them, the set-up
  helpers ``tails.marginal_tails``/``tails.is_tuning_b_vector``, and the
  ``RadialLaw`` callables of a model passed through :meth:`Tracer.radial`;
* randsrc   - ``randsrc.block_stream``, whose generator is handed out behind
  a delegating proxy that times and counts every draw;
* estimators - ``make_context``, the conditional cores and the block engines
  returned through ``harness.make_engine``;
* linalg    - ``factorize_all`` as ``make_context`` calls it;
* harness   - ``harness.run_replications`` (blocks versus reduction).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import replace

import numpy as np

# spans nested inside these record nothing: their children are a scipy
# quadrature's integrand calls, thousands per row, whose wrappers would
# dominate what they measure
_OPAQUE = frozenset({"tails.marginal_tail_single"})


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile, or None when fewer than ten samples
    lie above it (a tail read off fewer points is noise, not a percentile)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return None
    k = max(1, math.ceil(q / 100.0 * n))
    if n - k < 10:
        return None
    return xs[k - 1]


def row_classes(logc, slopes, psi_lo, psi_hi, ok) -> dict[str, int]:
    """Classify one ``exceedance_bounds`` batch by the solver path its rows take.

    Active terms have a finite log-coefficient and a nonzero slope.  ``inc``
    and ``dec`` are rows whose active slopes share one sign and that are not
    whole-line (those ran the one-sided root solve); ``single_term`` is the
    subset of them with exactly one active term.  ``mixed`` rows have slopes
    of both signs (the minimizer path).  ``whole``, ``empty`` and ``not_ok``
    come from the outputs: whole line exceeded, empty set, not converged.
    """
    logc = np.asarray(logc, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    act = np.isfinite(logc) & (slopes != 0.0)
    pos = np.any(act & (slopes > 0.0), axis=1)
    neg = np.any(act & (slopes < 0.0), axis=1)
    whole = np.asarray(psi_lo) >= np.asarray(psi_hi)
    one_sided = (pos ^ neg) & ~whole
    return {
        "rows": int(logc.shape[0]),
        "rows_single_term": int(np.sum(one_sided & (act.sum(axis=1) == 1))),
        "rows_inc": int(np.sum(pos & ~neg & ~whole)),
        "rows_dec": int(np.sum(neg & ~pos & ~whole)),
        "rows_mixed": int(np.sum(pos & neg)),
        "rows_whole": int(np.sum(whole)),
        "rows_empty": int(np.sum(np.isneginf(psi_lo) & np.isposinf(psi_hi))),
        "rows_not_ok": int(np.sum(~np.asarray(ok, dtype=bool))),
    }


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _Frame:
    __slots__ = ("name", "tag", "child")

    def __init__(self, name, tag):
        self.name = name
        self.tag = tag
        self.child = 0.0


class TracedGenerator:
    """Delegating proxy around a ``numpy.random.Generator``.

    Every method call is a draw span; the count is the size of what it
    returned.  The underlying generator is untouched, so the numbers drawn
    are the same as without the proxy.
    """

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            tracer.open("randsrc.draw")
            try:
                out = attr(*args, **kwargs)
            finally:
                tracer.close()
            tracer.count("randsrc.draws", int(np.size(out)))
            return out

        return draw


class _TracedStream:
    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def generator(self):
        return TracedGenerator(self._stream.generator(), self._tracer)


class Tracer:
    """Span aggregation plus the module patches that feed it.

    Use as a context manager around the work to trace; nested spans on each
    thread keep their own stack, and every thread aggregates into its own
    dictionaries, merged by :meth:`totals`.
    """

    def __init__(self, modules):
        self._m = modules           # namespace with estimators, harness, randsrc, tails
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, dict]] = []
        self.blocks: list[tuple[float, float, str]] = []   # (start, end, estimator)
        self.runs: list[tuple[float, float, int]] = []     # (start, end, threads)
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.times = []
            st.tag = "other"
            st.opaque = 0
            st.spans = {}
            st.counts = {}
            with self._lock:
                self._per_thread.append((st.spans, st.counts))
        return st

    def open(self, name: str):
        st = self._state()
        if st.opaque:
            st.stack.append(None)
            return
        if name in _OPAQUE:
            st.opaque += 1
        st.stack.append(_Frame(name, st.tag))
        st.times.append(time.perf_counter())

    def close(self) -> float:
        """End the innermost span; returns its duration (0 inside opaque)."""
        t1 = time.perf_counter()
        st = self._local
        frame = st.stack.pop()
        if frame is None:
            return 0.0
        dur = t1 - st.times.pop()
        if frame.name in _OPAQUE:
            st.opaque -= 1
        if st.stack and st.stack[-1] is not None:
            st.stack[-1].child += dur
        key = (frame.name, frame.tag)
        agg = st.spans.get(key)
        if agg is None:
            st.spans[key] = [1, dur, dur - frame.child]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame.child
        return dur

    def count(self, name: str, k: int):
        st = self._state()
        key = (name, st.tag)
        st.counts[key] = st.counts.get(key, 0) + k

    def set_tag(self, tag: str) -> str:
        st = self._state()
        old, st.tag = st.tag, tag
        return old

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def totals(self):
        """Merged (spans, counts): spans[(name, tag)] = [calls, seconds, self_s]."""
        spans: dict = {}
        counts: dict = {}
        with self._lock:
            for s, c in self._per_thread:
                for key, (n, dur, self_s) in list(s.items()):
                    agg = spans.setdefault(key, [0, 0.0, 0.0])
                    agg[0] += n
                    agg[1] += dur
                    agg[2] += self_s
                for key, k in list(c.items()):
                    counts[key] = counts.get(key, 0) + k
        return spans, counts

    # -- patches -------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _traced_exceedance(self, fn):
        def exceedance_bounds(logc, slopes, log_level):
            self.open("rootfind")
            try:
                out = fn(logc, slopes, log_level)
            finally:
                self.close()
            # a span of its own, so the classification is not charged to the caller
            self.open("trace.row_classes")
            try:
                for key, k in row_classes(logc, slopes, *out).items():
                    self.count("rootfind." + key, k)
            finally:
                self.close()
            return out

        return exceedance_bounds

    def _traced_make_engine(self, fn):
        def make_engine(ctx, kind, *args, **kwargs):
            engine = fn(ctx, kind, *args, **kwargs)
            tag = kind.name

            def traced_engine(gen, mb):
                old = self.set_tag(tag)
                self.open("engine")
                t0 = time.perf_counter()
                try:
                    res = engine(gen, mb)
                finally:
                    dur = self.close()
                    self.set_tag(old)
                self.blocks.append((t0, t0 + dur, tag))
                self.count("estimators.root_redraws", int(res.root_failures))
                self.count("estimators.theta_clamped", int(res.clamped))
                return res

            return traced_engine

        return make_engine

    def _traced_run_replications(self, fn):
        def run_replications(engine, n, seed, threads=1, rep_lo=0):
            t0 = time.perf_counter()
            try:
                return fn(engine, n, seed, threads=threads, rep_lo=rep_lo)
            finally:
                self.runs.append((t0, time.perf_counter(), threads))

        return run_replications

    def _traced_block_stream(self, fn):
        def block_stream(seed, block):
            self.count("randsrc.blocks", 1)
            return _TracedStream(fn(seed, block), self)

        return block_stream

    def _traced_make_context(self, fn):
        def make_context(*args, **kwargs):
            old = self.set_tag("setup")
            try:
                return self.wrap("estimators.make_context", fn)(*args, **kwargs)
            finally:
                self.set_tag(old)

        return make_context

    def __enter__(self):
        est, harness, randsrc, tails = (self._m.estimators, self._m.harness,
                                        self._m.randsrc, self._m.tails)
        self._patch(est, "exceedance_bounds",
                    self._traced_exceedance(est.exceedance_bounds))
        for name, span in (("normal_tail", "tails.normal_tail"),
                           ("normal_cdf", "tails.normal_tail"),
                           ("log_sphere_density", "tails.density"),
                           ("log_is_density", "tails.density"),
                           ("factorize_all", "linalg.factorize_all"),
                           ("mak_conditional_values", "estimators.core"),
                           ("rn_conditional_values", "estimators.core"),
                           ("zr_values", "estimators.core")):
            self._patch(est, name, self.wrap(span, getattr(est, name)))
        self._patch(est, "make_context", self._traced_make_context(est.make_context))
        for name in ("marginal_tail_single", "marginal_tails", "is_tuning_b_vector"):
            self._patch(tails, name, self.wrap("tails." + name, getattr(tails, name)))
        self._patch(randsrc, "block_stream", self._traced_block_stream(randsrc.block_stream))
        self._patch(harness, "make_engine", self._traced_make_engine(harness.make_engine))
        self._patch(harness, "run_replications",
                    self._traced_run_replications(harness.run_replications))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        return False

    def radial(self, law):
        """The same radial law with its ``tail`` and ``quantile`` traced."""
        return replace(law, tail=self.wrap("tails.radial_tail", law.tail),
                       quantile=self.wrap("tails.radial_quantile", law.quantile))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_ESTIMATORS = ("cmc", "ak", "mak", "rn", "zr")
_SOLVER = ("mak", "rn", "zr")
_ROW_CLASSES = ("rows_single_term", "rows_inc", "rows_dec", "rows_mixed",
                "rows_whole", "rows_empty", "rows_not_ok")

# name -> (unit, better); replication-phase times are seconds per pass over
# the workload, set-up times seconds per set-up of all its cells
LAYER_METRICS = {
    "rootfind.s": ("s", "lower"),
    **{f"rootfind.s.{e}": ("s", "lower") for e in _SOLVER},
    **{f"rootfind.share.{e}": ("ratio", "lower") for e in _ESTIMATORS},
    "rootfind.calls": ("count", "lower"),
    "rootfind.rows": ("count", "lower"),
    "rootfind.rows_per_rep": ("count", "lower"),
    "rootfind.us_per_row": ("us", "lower"),
    **{f"rootfind.{c}": ("count", "lower") for c in _ROW_CLASSES},
    "tails.normal_tail.s": ("s", "lower"),
    "tails.density.s": ("s", "lower"),
    "tails.marginal_tail_single.s": ("s", "lower"),
    "tails.marginal_tail_single.calls": ("count", "lower"),
    "tails.marginal_tail_single.share.ak": ("ratio", "lower"),
    "tails.radial_quantile.s": ("s", "lower"),
    "tails.radial_quantile.calls": ("count", "lower"),
    "tails.radial_tail.s": ("s", "lower"),
    "tails.marginal_tails.s": ("s", "lower"),
    "tails.is_tuning_b_vector.s": ("s", "lower"),
    "randsrc.draw_s": ("s", "lower"),
    **{f"randsrc.draw_s.{e}": ("s", "lower") for e in _ESTIMATORS},
    "randsrc.draws": ("count", "lower"),
    "randsrc.blocks": ("count", "lower"),
    "estimators.make_context.s": ("s", "lower"),
    **{f"estimators.core_self_s.{e}": ("s", "lower") for e in _SOLVER},
    **{f"estimators.engine_self_s.{e}": ("s", "lower") for e in _ESTIMATORS},
    "estimators.root_redraws": ("count", "lower"),
    "estimators.theta_clamped": ("count", "lower"),
    "linalg.factorize_all.s": ("s", "lower"),
    "model.build_s": ("s", "lower"),
    "tailrisk.import_s": ("s", "lower"),
    "harness.block_ms_p50": ("ms", "lower"),
    "harness.block_ms_p90": ("ms", "lower"),
    "harness.blocks": ("count", "lower"),
    "harness.reduce_s": ("s", "lower"),
    "harness.pool_busy_frac": ("ratio", "higher"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def pass_layer_metrics(tracer: Tracer, solver_reps: int) -> dict[str, float]:
    """Replication-phase layer metrics of one traced pass.

    ``solver_reps``: replications run by the estimators that call the solver.
    Block percentiles are left out here; they pool blocks over passes.
    """
    spans, counts = tracer.totals()

    def s(name, tags=_ESTIMATORS, field=1):
        tags = (tags,) if isinstance(tags, str) else tags
        return sum(v[field] for (n, t), v in spans.items() if n == name and t in tags)

    def c(name, tags=_ESTIMATORS):
        return sum(v for (n, t), v in counts.items()
                   if n == name and (tags is None or t in tags))

    engine = {e: s("engine", e) for e in _ESTIMATORS}
    out = {"rootfind.s": s("rootfind")}
    for e in _SOLVER:
        out[f"rootfind.s.{e}"] = s("rootfind", e)
    for e in _ESTIMATORS:
        out[f"rootfind.share.{e}"] = s("rootfind", e) / engine[e] if engine[e] else 0.0
    rows = c("rootfind.rows")
    out["rootfind.calls"] = s("rootfind", field=0)
    out["rootfind.rows"] = rows
    out["rootfind.rows_per_rep"] = rows / solver_reps if solver_reps else 0.0
    out["rootfind.us_per_row"] = 1e6 * out["rootfind.s"] / rows if rows else 0.0
    for cls in _ROW_CLASSES:
        out[f"rootfind.{cls}"] = c("rootfind." + cls)
    out["tails.normal_tail.s"] = s("tails.normal_tail")
    out["tails.density.s"] = s("tails.density")
    out["tails.marginal_tail_single.s"] = s("tails.marginal_tail_single")
    out["tails.marginal_tail_single.calls"] = s("tails.marginal_tail_single", field=0)
    out["tails.marginal_tail_single.share.ak"] = (
        s("tails.marginal_tail_single", "ak") / engine["ak"] if engine["ak"] else 0.0)
    out["tails.radial_quantile.s"] = s("tails.radial_quantile")
    out["tails.radial_quantile.calls"] = s("tails.radial_quantile", field=0)
    out["tails.radial_tail.s"] = s("tails.radial_tail")
    out["randsrc.draw_s"] = s("randsrc.draw")
    for e in _ESTIMATORS:
        out[f"randsrc.draw_s.{e}"] = s("randsrc.draw", e)
    out["randsrc.draws"] = c("randsrc.draws")
    out["randsrc.blocks"] = c("randsrc.blocks", None)
    for e in _SOLVER:
        out[f"estimators.core_self_s.{e}"] = s("estimators.core", e, field=2)
    for e in _ESTIMATORS:
        out[f"estimators.engine_self_s.{e}"] = s("engine", e, field=2)
    out["estimators.root_redraws"] = c("estimators.root_redraws")
    out["estimators.theta_clamped"] = c("estimators.theta_clamped")
    block_s = sum(b - a for a, b, _ in tracer.blocks)
    run_s = sum(b - a for a, b, _ in tracer.runs)
    capacity = sum((b - a) * k for a, b, k in tracer.runs)
    out["harness.reduce_s"] = run_s - sum(
        union_length([(x, y) for x, y, _ in tracer.blocks if a <= x and y <= b])
        for a, b, _ in tracer.runs)
    out["harness.pool_busy_frac"] = block_s / capacity if capacity else 0.0
    return out


def setup_layer_metrics(tracer: Tracer, setups: int) -> dict[str, float]:
    """Set-up layer times per set-up of every cell, from ``setups`` traced ones."""
    spans, _ = tracer.totals()

    def s(name):
        return sum(v[1] for (n, t), v in spans.items() if n == name and t == "setup")

    return {
        "estimators.make_context.s": s("estimators.make_context") / setups,
        "linalg.factorize_all.s": s("linalg.factorize_all") / setups,
        "tails.marginal_tails.s": s("tails.marginal_tails") / setups,
        "tails.is_tuning_b_vector.s": s("tails.is_tuning_b_vector") / setups,
    }
