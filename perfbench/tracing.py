"""Spans and counters recorded from outside photonsim.

``Tracer`` replaces public photonsim functions at the module attributes
through which the package calls them, records a span around every call
and restores the originals on exit.  No photonsim source changes.

``quadrature.j_line`` runs in the grid fill's worker threads, which no
context variable reaches; its spans take the op id from the tracer and
their parent from the span the main thread has open, which is the
``channel_matrices`` call waiting on the pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import photonsim.amplitudes
import photonsim.cli
import photonsim.observables
from photonsim.errors import NoConvergence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_points(counters, args, result, key):
    counters[key] += np.size(args[0]) * np.size(args[1])


RUNG = "quadrature.j_line"

# (module, attribute, counter hook).  The span name is the defining module
# and function, so one function patched at two import sites keeps one name.
SITES = [
    (photonsim.cli, "main", None),
    (photonsim.cli, "probabilities", None),
    (photonsim.cli, "amplitude_grid", None),
    (photonsim.cli, "schmidt_report", None),
    (photonsim.cli, "single_photon_output", None),
    (photonsim.cli, "single_photon_probabilities", None),
    (photonsim.cli, "single_photon_norm", None),
    (photonsim.cli, "load_sampled_pulse", None),
    (photonsim.amplitudes, "channel_matrices", None),
    (photonsim.amplitudes, "linear_parts",
     lambda c, a, r: _grid_points(c, a, r, "amplitudes.linear_points")),
    (photonsim.amplitudes, "j_line",
     lambda c, a, r: c.update({"quadrature.rungs": 1, "quadrature.rung_evals": r.evaluations})),
    (photonsim.observables, "channel_matrices", None),
    (photonsim.observables, "linear_parts",
     lambda c, a, r: _grid_points(c, a, r, "observables.tail_points")),
    (photonsim.observables, "integrate_half_line_multi",
     lambda c, a, r: c.update({"observables.tail_evals": r[2]})),
    (photonsim.observables, "residue_j",
     lambda c, a, r: c.update({"oracle.residue_points": np.size(a[0])})),
]


class Tracer:
    """Context manager that records spans while it is entered.

    Set ``op`` to the id of the op about to run; spans started during it
    carry that id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list = []

    def __enter__(self):
        for module, attr, hook in SITES:
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NoConvergence:
                # Counted where a rung fails, not again in every caller it
                # propagates through.
                if name == RUNG:
                    with self._lock:
                        self.counters["quadrature.no_convergence"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, parent, self.op, threading.get_ident())
                )
            if hook is not None:
                with self._lock:
                    hook(self.counters, args, result)
            return result

        return traced


LAYER_METRICS = [
    ("amplitudes.ladder_s", "s"),
    ("quadrature.rungs", "count"),
    ("quadrature.rung_evals", "count"),
    ("quadrature.no_convergence", "count"),
    ("quadrature.rung_busy_s", "s"),
    ("amplitudes.linear_s", "s"),
    ("amplitudes.linear_points", "count"),
    ("observables.tails_s", "s"),
    ("observables.tail_calls", "count"),
    ("observables.tail_evals", "count"),
    ("observables.tail_points", "count"),
    ("oracle.residue_points", "count"),
    ("observables.window_s", "s"),
    ("observables.svd_s", "s"),
    ("kernels.single_s", "s"),
    ("model.pulse_load_s", "s"),
    ("cli.self_s", "s"),
]

_SINGLE = (
    "kernels.single_photon_output",
    "observables.single_photon_probabilities",
    "observables.single_photon_norm",
)


def layer_metrics(spans: list[Span], counters: Counter) -> dict[str, float]:
    """Per-layer totals over every traced op.

    Self time is a span's duration minus its direct children on the same
    thread; the grid fill's rung spans, on worker threads, are not
    subtracted from the ``channel_matrices`` span that waits on them.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_time(s):
        return s.duration - sum(c.duration for c in children[s.id] if c.thread == s.thread)

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    tails = [
        s for s in named("quadrature.integrate_half_line_multi")
        if parent_name(s) != s.name
    ]
    out = {name: float(counters[name]) for name, unit in LAYER_METRICS if unit == "count"}
    times = {
        "amplitudes.ladder_s": sum(
            s.duration - sum(c.duration for c in children[s.id] if c.name == "amplitudes.linear_parts")
            for s in named("amplitudes.channel_matrices")
        ),
        "quadrature.rung_busy_s": sum(s.duration for s in named(RUNG)),
        "amplitudes.linear_s": sum(
            s.duration for s in named("amplitudes.linear_parts")
            if parent_name(s) == "amplitudes.channel_matrices"
        ),
        "observables.tails_s": sum(s.duration for s in tails),
        "observables.tail_calls": float(len(tails)),
        "observables.window_s": sum(self_time(s) for s in named("observables.probabilities")),
        "observables.svd_s": sum(s.duration for s in named("observables.schmidt_report")),
        "kernels.single_s": sum(s.duration for n in _SINGLE for s in named(n)),
        "model.pulse_load_s": sum(s.duration for s in named("model.load_sampled_pulse")),
        "cli.self_s": sum(self_time(s) for s in named("cli.main")),
    }
    out.update({k: float(v) for k, v in times.items()})
    return out
