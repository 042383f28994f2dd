"""Span recording around dualcache's public functions, from outside the package.

install() wraps each function in LAYERS with a recorder and rebinds the
wrapper in every ``dualcache.*`` namespace that holds the original, so
calls made inside the package are seen too.  ``Segment.transmissions`` is
wrapped on its class and the ``curve`` command on its callback.  The
returned function puts every original back; the untraced run never calls
install().

A span records its name, start, end, parent span and case id.  Spans stay
in memory until the run ends.  Counts are taken from return values, so
they are exact and do not depend on timing.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from dualcache import cli, simulator

ROOT = "trace.unattributed_s"   # one per case; its self time is unwrapped code


def _placement_entries(result):
    return {"model.placement_entries":
            sum(map(len, result.helper_contents)) + sum(map(len, result.private_contents))}


def _run_report(result):
    return {"simulator.file_len_bytes": result.file_len,
            "simulator.air_bytes": result.total_air_bytes,
            "simulator.decoded_bytes": sum(result.air_bytes)}


def _corners(result):
    return {"envelope.corners": len(result)}


def _segments(result):
    return {"envelope.segments": len(result.segments)}


def _transmissions(result):
    return {"simulator.transmissions": len(result),
            "simulator.summands": sum(len(t.summands) for t in result)}


# (module, function, span metric or None for count-only, counts from the return value)
LAYERS = (
    ("combin", "enumerate_ksubsets", "combin.enumerate_s", lambda r: {"combin.ksubsets": len(r)}),
    ("combin", "rank_ksubset", None, lambda r: {"combin.rank_calls": 1}),
    ("model", "load_config", "model.load_s", None),
    ("model", "build_association", "model.load_s", None),
    ("scheme_unknown", "place_unknown", "scheme_unknown.place_s", _placement_entries),
    ("scheme_unknown", "deliver_unknown", "scheme_unknown.deliver_s", None),
    ("scheme_unknown", "layout_unknown", "scheme_unknown.layout_s", None),
    ("scheme1", "place_scheme1", "scheme1.place_s", _placement_entries),
    ("scheme1", "deliver_scheme1", "scheme1.deliver_s", None),
    ("scheme1", "layout_scheme1", "scheme1.layout_s", None),
    ("scheme2", "place_scheme2", "scheme2.place_s", _placement_entries),
    ("scheme2", "deliver_scheme2", "scheme2.deliver_s", None),
    ("scheme2", "layout_scheme2", "scheme2.layout_s", None),
    ("envelope", "dedicated_corners", "envelope.corners_s", _corners),
    ("envelope", "scheme2_corners", "envelope.corners_s", _corners),
    ("envelope", "scheme1_corners", "envelope.corners_s", _corners),
    ("envelope", "unknown_corners", "envelope.corners_s", _corners),
    ("envelope", "envelope_at", "envelope.lp_s", lambda r: {"envelope.lp_calls": 1}),
    ("envelope", "materialize_shared_placement", "envelope.materialize_s", _segments),
    ("envelope", "unknown_run_segments", "envelope.materialize_s", _segments),
    ("bounds", "lower_convex_points", "bounds.hull_s", lambda r: {"bounds.hull_calls": 1}),
    ("bounds", "man_rate", "bounds.reference_s", None),
    ("bounds", "pue_rate", "bounds.reference_s", None),
    ("bounds", "cutset_bound", "bounds.reference_s", None),
    ("converse", "build_h", "converse.build_h_s",
     lambda r: {"converse.h_size": len(r[0]) + len(r[1])}),
    ("converse", "verify_acyclic", "converse.acyclic_self_s", None),
    ("converse", "certify", "converse.certify_self_s", None),
    ("simulator", "build_segment", "simulator.build_segment_self_s",
     lambda r: {"simulator.pieces": len(r.extents)}),
    ("simulator", "choose_file_len", "simulator.file_len_s", None),
    ("simulator", "run_end_to_end", "simulator.run_self_s", _run_report),
)

TIMES = sorted({span for _, _, span, _ in LAYERS if span} | {"cli.curve_self_s"})
COUNTS = sorted(
    {"combin.ksubsets", "combin.rank_calls", "model.placement_entries", "envelope.corners",
     "envelope.lp_calls", "envelope.segments", "bounds.hull_calls", "converse.h_size",
     "simulator.pieces", "simulator.transmissions", "simulator.summands",
     "simulator.file_len_bytes", "simulator.air_bytes", "simulator.decoded_bytes",
     "cli.rows"}
)


class Tracer:
    """Spans and counts of one phase of a run; active only inside cases."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, case, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.case = None
        self.active = False

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.case, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self.stack.pop()

    def begin_case(self, case: str) -> int:
        """Open a case's root span and start recording."""
        self.case, self.active = case, True
        return self.open(ROOT)

    def end_case(self, index: int) -> None:
        self.close(index)
        self.active = False

    def take(self) -> tuple[list, Counter]:
        """Hand over what was recorded and start empty."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list) -> dict[str, float]:
    """Per span name: duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, _, start, end, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out


def _wrap(tracer: Tracer, fn, span, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if span is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
        if count is not None:
            tracer.counts.update(count(result))
        return result
    return wrapper


def install(tracer: Tracer):
    """Wrap every layer function; returns a function that undoes it."""
    undo = []

    def rebind(owner, attr, new):
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        undo.append((owner, attr, old))

    modules = [m for name, m in sys.modules.items()
               if name == "dualcache" or name.startswith("dualcache.")]
    for module_name, func_name, span, count in LAYERS:
        original = getattr(sys.modules[f"dualcache.{module_name}"], func_name)
        wrapper = _wrap(tracer, original, span, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    rebind(module, attr, wrapper)
    rebind(simulator.Segment, "transmissions",
           _wrap(tracer, simulator.Segment.transmissions, None, _transmissions))
    rebind(cli.curve, "callback", _wrap(tracer, cli.curve.callback, "cli.curve_self_s", None))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return uninstall
