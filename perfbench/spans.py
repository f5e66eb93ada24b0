"""Spans around calls into queuemax's modules, recorded from outside the program.

The tracer replaces module attributes with wrappers. A module looks its
globals up at call time, so wrapping `queuemax.geo_analysis.decay_rate_omega`
also catches the calls `analyze_geo` makes to it. Spans stay in memory and
are written once, when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute): every name through which cli and the library reach
# another layer's public function, plus the private kernels whose cost the
# per-layer metrics need (stationary law, slot loops, customer draws).
TARGETS = [
    ("cli", "validate_geo_params"), ("cli", "validate_mm_params"),
    ("cli", "analyze_geo"), ("cli", "max_length_law"), ("cli", "expected_max_length"),
    ("cli", "mean_queue_length"), ("cli", "replicate_max_length"),
    ("cli", "replicate_wait_maxima"), ("cli", "expected_max_wait_mm1"),
    ("cli", "max_wait_cdf_mm1"), ("cli", "mean_wait"),
    ("cli", "gumbel_fit_two_moment"), ("cli", "ks_distance"),
    ("cli", "_geo_cdf_table"), ("cli", "_write_outputs"),
    ("geo_analysis", "decay_rate_omega"), ("geo_analysis", "_stationary_from_omega"),
    ("geo_analysis", "hitting_probabilities"), ("geo_analysis", "fixed_point_root"),
    ("geo_analysis", "polynomial_roots"), ("geo_analysis", "solve_linear_system"),
    ("geo_analysis", "increment_distribution"),
    ("geo_sim", "_run_many"), ("geo_sim", "_run_single"), ("geo_sim", "substream_seed"),
    ("geo_sim", "make_sim_result"), ("geo_sim", "time_average_queue_length"),
    ("mm_sim", "assign_service_starts"), ("mm_sim", "_draw_customers"),
    ("mm_sim", "substream_seed"), ("mm_sim", "make_sim_result"),
    ("replication", "summarize"), ("replication", "substream_generator"),
]


def _home(fn) -> str:
    """Layer name of a function: the queuemax module that defines it."""
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans [label, start, end, parent, trace_id, error] while a trace id is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = None
        self._stack: list[int] = []
        self._restore = []

    def install(self, package) -> None:
        for module_name, attr in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, f"{_home(original)}.{original.__name__}"))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _open(self, label) -> list:
        record = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trace_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, label):
        def traced(*args, **kwargs):
            if self.trace_id is None:
                return fn(*args, **kwargs)
            record = self._open(label)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                self._close(record)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def trace(self, label, trace_id):
        """Root span of a new trace; wrapped calls inside it become its descendants."""
        self.trace_id = trace_id
        record = self._open(label)
        try:
            yield record
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            self._close(record)
            self.trace_id = None

    # ------------------------------------------------------------ analysis

    def durations(self, label, trace_id=None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == label and (trace_id is None or s[4] == trace_id)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        totals = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            totals[s[0].split(".", 1)[0]] += own
        return dict(totals)

    def write(self, path: Path) -> None:
        own = self.self_times()
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "trace": s[4], "self": t, "error": s[5]}
                for s, t in zip(self.spans, own)]
        path.write_text(json.dumps({"spans": rows}) + "\n")
