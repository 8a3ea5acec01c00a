"""Spans and counters around the package's layers, installed from outside it.

``installed(jg)`` wraps the public functions listed in ``SPANS`` and
``COUNTERS``.  ``analysis``, ``experiments`` and ``cli`` import those
functions by name, so every ``juntagap`` module attribute that is the
original function object is re-bound to the wrapper; methods are patched
on their class.  Leaving the ``with`` block restores every original.
Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id.  Spans stay in
memory; :meth:`Tracer.dump` writes them once.  Self time is a span's
duration minus the time its child spans cover.  Per-word scalar functions
get counters only, since a span per call would swamp what it measures.
Sizes marked "computed" in the README are derived from the call's
arguments, not counted inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager


#: span name -> (names of computed sizes, arguments -> size values)
SPANS = {
    "bitcube.substream": ((), None),
    "functions.family_hit_counts": (
        ("clause_word_evals", "bytes_computed"),
        lambda a: (a["values"].size * a["family"].m, a["values"].nbytes * a["family"].m),
    ),
    "functions.family_hit_tables": (("words",), lambda a: (1 << a["family"].x_width,)),
    "functions.TribesAddressing.eval_values": (("words",), lambda a: (a["values"].size,)),
    "functions.sample_family": ((), None),
    "analysis.truth_table": (("words",), lambda a: (1 << a["f"].arity,)),
    "analysis.check_monotone": (
        ("edges",), lambda a: (a["f"].arity << (a["f"].arity - 1),)
    ),
    "analysis.depth_certificate": (
        ("leaf_probes",),
        # exhaustive sweep: every leaf word; probed: at most 4 fixed + random probes
        lambda a: (
            (1 << a["cf"].family.x_width)
            * ((1 << a["cf"].family.m) if a["cf"].family.m <= a["exhaustive_leaf_cap"]
               else a["probes_per_x"] + 4),
        ),
    ),
    "analysis.exact_hit_statistics": (("words",), lambda a: (1 << a["family"].x_width,)),
    "analysis.tribes_addressing_total_influence": (
        ("flip_gathers",), lambda a: (a["family"].x_width << a["family"].x_width,)
    ),
    "junta.best_k_junta": (
        ("subsets", "fiber_visits"),
        lambda a: (
            math.comb(a["f"].arity, a["k"]),
            math.comb(a["f"].arity, a["k"]) << a["f"].arity,
        ),
    ),
    "montecarlo.joint_hit_counts": (("samples",), lambda a: (a["cfg"].n_samples,)),
    "montecarlo.family_hit_count_samples": (
        ("samples", "clause_sample_evals"),
        lambda a: (a["cfg"].n_samples, a["cfg"].n_samples * a["family"].m),
    ),
    "montecarlo.estimate_family_statistics": ((), None),
    "montecarlo.sensitivity_profile": (
        ("samples", "coordinate_flips"),
        lambda a: (a["cfg"].n_samples, a["cfg"].n_samples * a["f"].arity),
    ),
    "experiments.parse_plan": ((), None),
    "experiments.run_plan": ((), None),
    "experiments.family_stat_rows": ((), None),
    "experiments.junta_rows": ((), None),
    # rows and bytes are measured on the rows and stream write_rows is given
    "experiments.write_rows": (("rows", "bytes"), None),
    "cli.certify": ((), None),
}

#: counted function -> counter name
COUNTERS = {
    "functions.TribesAddressing.eval": "functions.TribesAddressing.eval.calls",
    "functions.hit_set": "functions.hit_set.calls",
    "bitcube.InputWord.__post_init__": "bitcube.InputWord.created",
}

#: useful-work ratio -> the per-op count it reads
RATIOS = {
    "analysis.truth_table.builds_per_op": "analysis.truth_table.calls",
    "analysis.exact_hit_statistics.calls_per_op": "analysis.exact_hit_statistics.calls",
    "functions.TribesAddressing.eval.calls_per_op": "functions.TribesAddressing.eval.calls",
    "bitcube.InputWord.created_per_op": "bitcube.InputWord.created",
}

OVERHEAD = ("trace.untraced_op_s_p50", "trace.traced_op_s_p50", "trace.overhead_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, (sizes, _) in SPANS.items():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
        for size in sizes:
            units[f"{name}.{size}"] = "B/op" if size in ("bytes", "bytes_computed") else "count/op"
    units["other.self_s"] = "s/op"
    for counter in COUNTERS.values():
        units[counter] = "count/op"
    for ratio in RATIOS:
        units[ratio] = "count/op"
    for name in OVERHEAD:
        units[name] = "s"
    return units


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        # each span: [name, start, end, parent index, op id, child seconds, sizes]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id: int | None = None
        self.counts = dict.fromkeys(COUNTERS.values(), 0)

    def begin(self, name: str, sizes: dict | None = None):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, 0.0, sizes or {}])
        self._open.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def op(self, op_id: int):
        """The root span of one op; its self time is ``other.self_s``."""
        self.op_id = op_id
        self.begin("op")
        try:
            yield
        finally:
            self.end()
            self.op_id = None

    def per_op(self) -> dict[str, float]:
        """Calls, self time, sizes and counters per op, for every listed layer."""
        ops = sum(1 for s in self.spans if s[0] == "op")
        totals = {name: 0.0 for name in metric_units() if name not in OVERHEAD}
        for name, start, end, _, _, child_s, sizes in self.spans:
            key = "other" if name == "op" else name
            totals[f"{key}.self_s"] += end - start - child_s
            if name != "op":
                totals[f"{name}.calls"] += 1
                for size, value in sizes.items():
                    totals[f"{name}.{size}"] += value
        totals.update(self.counts)
        for ratio, count in RATIOS.items():
            totals[ratio] = totals[count]
        return {name: value / ops for name, value in totals.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, _, sizes in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "sizes": sizes}) + "\n")


class _CountingStream:
    """Passes writes through to ``stream`` and counts the UTF-8 bytes."""

    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)


def _span_wrapper(tracer: Tracer, name: str, fn):
    size_names, size_fn = SPANS[name]
    signature = inspect.signature(fn)

    if name == "experiments.write_rows":
        @functools.wraps(fn)
        def write_rows(rows, stream):
            rows = list(rows)
            counted = _CountingStream(stream)
            sizes = {"rows": len(rows), "bytes": 0}
            tracer.begin(name, sizes)
            try:
                return fn(rows, counted)
            finally:
                sizes["bytes"] = counted.bytes
                tracer.end()
        return write_rows

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sizes = None
        if size_fn is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            sizes = dict(zip(size_names, (int(v) for v in size_fn(bound.arguments))))
        tracer.begin(name, sizes)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _counter_wrapper(counts: dict, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _resolve(jg, target: str):
    """``module.Class.attr`` -> (owner object, attribute name)."""
    module, *path = target.split(".")
    owner = getattr(jg, module)
    for part in path[:-1]:
        owner = getattr(owner, part)
    if target == "cli.certify":  # a click command: wrap its callback
        return owner.certify, "callback"
    return owner, path[-1]


@contextmanager
def installed(jg):
    """Trace the package's layers for the duration of the block."""
    tracer = Tracer()
    patches = []  # (owner, attribute, original)
    modules = [m for n, m in list(sys.modules.items())
               if n == "juntagap" or n.startswith("juntagap.")]
    targets = [(t, lambda fn, t=t: _span_wrapper(tracer, t, fn)) for t in SPANS]
    targets += [(t, lambda fn, c=c: _counter_wrapper(tracer.counts, c, fn))
                for t, c in COUNTERS.items()]
    try:
        for target, make in targets:
            owner, attr = _resolve(jg, target)
            original = getattr(owner, attr)
            wrapper = make(original)
            owners = [(owner, attr)]
            if inspect.ismodule(owner):
                owners += [(m, a) for m in modules for a, v in vars(m).items()
                           if v is original and (m, a) != (owner, attr)]
            for o, a in owners:
                patches.append((o, a, original))
                setattr(o, a, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
