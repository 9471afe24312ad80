"""Outside-in span tracing of the shrinktarget layers.

The child process installs wrappers around the cross-module public calls
of each layer, at the name the caller looks up (``counting`` imports
``contains`` and ``beta_step`` by name, so those are wrapped in the
``counting`` namespace).  Nothing under ``src/`` changes.

Each span is ``[span_id, parent_id, name, start, end, sample_id]``; the
request id of a span is (workload, rep, sample_id), where the trace's
``request`` holds the workload and rep of the child.  Spans stay in memory
until the run ends.
``summarize`` turns them into the per-layer metrics: self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import time

LAYERS = ("cli", "counting", "targets", "orbits", "measures", "cylinders", "markov")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.sampled_measures: list = []
        self._stack: list = []
        self._sample_id = None

    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, owner, attr: str, name: str, after=None,
             tags_sample: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, kwargs, result)`` runs once the span has
        closed, so counter bookkeeping is not charged to the span.  With
        ``tags_sample`` the call's ``sample_id`` keyword tags its span and
        every span inside it.
        """
        fn = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer._sample_id
            if tags_sample:
                tracer._sample_id = kwargs.get("sample_id", 0)
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                    tracer._sample_id]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                tracer._sample_id = outer
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def _count_steps(tracer, args, kwargs, result):
    tracer.add("counting.orbit_steps", int(args[3] if len(args) > 3 else kwargs["n_steps"]))


def _peak_bits(tracer, args, kwargs, result):
    tracer.peak("orbits.peak_bits", result.precision_bits)


def _count_pieces(tracer, args, kwargs, result):
    tracer.add("cylinders.preimage_pieces", len(result))


def _note_sampled(tracer, args, kwargs, result):
    mu = args[0]
    if all(m is not mu for m in tracer.sampled_measures):
        tracer.sampled_measures.append(mu)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark workloads cross."""
    from shrinktarget import cli, counting, markov, measures

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "monte_carlo_counting", "counting.monte_carlo_counting")
    tracer.wrap(cli, "correlation_series", "counting.correlation_series")
    tracer.wrap(cli, "power_map", "markov.power_map")
    tracer.wrap(cli, "build_markov", "markov.build_markov")
    tracer.wrap(cli, "is_primitive", "markov.is_primitive")
    tracer.wrap(cli, "entropy_and_dim", "markov.entropy_and_dim")
    tracer.wrap(markov, "normalize_partition", "markov.normalize_partition")
    tracer.wrap(counting, "count_hits", "counting.count_hits", after=_count_steps,
                tags_sample=True)
    tracer.wrap(counting, "phi_values", "targets.phi_values")
    tracer.wrap(counting, "contains", "targets.contains")
    tracer.wrap(counting, "beta_step", "orbits.beta_step", after=_peak_bits)
    tracer.wrap(counting, "preimage_intervals", "cylinders.preimage_intervals",
                after=_count_pieces)
    tracer.wrap(measures.ParryYrrapMeasure, "__init__", "measures.ParryYrrapMeasure")
    tracer.wrap(measures.ParryYrrapMeasure, "sample", "measures.sample",
                after=_note_sampled)
    tracer.wrap(measures.ProductMeasure, "ball", "measures.ball")


def finish(tracer: Tracer) -> dict:
    """Counters that need the finished run (computed after the last span)."""
    rates = [1.0 / mu.envelope() for mu in tracer.sampled_measures]
    counters = dict(tracer.counters)
    counters["measures.accept_rate"] = statistics.fmean(rates) if rates else 0.0
    return {"spans": tracer.spans, "counters": counters}


def _self_times(spans) -> list[float]:
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced child run."""
    spans = trace["spans"]
    counters = trace["counters"]
    own = _self_times(spans)
    by_name: dict = {}
    calls: dict = {}
    for span, self_s in zip(spans, own):
        by_name[span[2]] = by_name.get(span[2], 0.0) + self_s
        calls[span[2]] = calls.get(span[2], 0) + 1
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, self_s in by_name.items():
        layer_s[name.split(".", 1)[0]] += self_s
    samples = [end - start for _, _, name, start, end, _ in spans
               if name == "counting.count_hits"]
    step_s = by_name.get("orbits.beta_step", 0.0)
    step_calls = calls.get("orbits.beta_step", 0)
    out = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
    out.update({
        "counting.sample_s.p50": _quantile(samples, 0.5),
        "counting.sample_s.p90": _quantile(samples, 0.9),
        "counting.samples": len(samples),
        "counting.orbit_steps": counters.get("counting.orbit_steps", 0),
        "targets.phi_s": by_name.get("targets.phi_values", 0.0),
        "targets.phi_calls": calls.get("targets.phi_values", 0),
        "targets.contains_s": by_name.get("targets.contains", 0.0),
        "targets.contains_calls": calls.get("targets.contains", 0),
        "orbits.step_s": step_s,
        "orbits.step_calls": step_calls,
        "orbits.us_per_step": 1e6 * step_s / step_calls if step_calls else 0.0,
        "orbits.peak_bits": counters.get("orbits.peak_bits", 0),
        "measures.build_s": by_name.get("measures.ParryYrrapMeasure", 0.0),
        "measures.ball_s": by_name.get("measures.ball", 0.0),
        "measures.ball_calls": calls.get("measures.ball", 0),
        "measures.sample_s": by_name.get("measures.sample", 0.0),
        "measures.accept_rate": counters.get("measures.accept_rate", 0.0),
        "cylinders.preimage_s": by_name.get("cylinders.preimage_intervals", 0.0),
        "cylinders.preimage_pieces": counters.get("cylinders.preimage_pieces", 0),
        "markov.power_map_s": by_name.get("markov.power_map", 0.0),
        "markov.normalize_s": by_name.get("markov.normalize_partition", 0.0),
        "markov.build_self_s": by_name.get("markov.build_markov", 0.0),
        "markov.primitive_s": by_name.get("markov.is_primitive", 0.0),
        "markov.entropy_s": by_name.get("markov.entropy_and_dim", 0.0),
    })
    return out
