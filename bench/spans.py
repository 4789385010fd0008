"""Span recorder for the traced benchmark run.

``installed(recorder)`` replaces the library's public functions, at the names
their callers look them up, with wrappers that open a span around the call
and return exactly what the call returned.  Spans are kept in memory, one
stack per thread (``convergence._ordered_map`` runs truncations on worker
threads), and a span's self time is its duration minus the durations of its
direct children on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float
    self_s: float
    # False when an enclosing span on the same thread has the same name,
    # so inclusive time is not counted twice for recursive layers
    outermost: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("id", "name", "start", "child_s")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0


class Recorder:
    """In-memory spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        frame = _Frame(span_id, name, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.child_s += duration
            span = Span(span_id, None if parent is None else parent.id,
                        threading.get_ident(), name, frame.start, end,
                        duration - frame.child_s,
                        all(f.name != name for f in stack))
            with self._lock:
                self.spans.append(span)

    def count(self, key: str, amount: float = 1):
        with self._lock:
            self.counts[key] += amount

    def layer_totals(self) -> dict[str, float]:
        """``<name>.s``, ``<name>.self_s`` and ``<name>.calls`` per span name,
        plus every counter."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            spans = list(self.spans)
            out.update(self.counts)
        for s in spans:
            out[s.name + ".calls"] += 1
            out[s.name + ".self_s"] += s.self_s
            if s.outermost:
                out[s.name + ".s"] += s.duration
        return dict(out)

    def dump(self, path: Path, label: str):
        """Append this recorder's spans as JSON lines tagged with ``label``."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "a", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps({"pass": label, "id": s.id, "parent": s.parent,
                                     "thread": s.thread, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "self_s": s.self_s}) + "\n")


class _TracedLock:
    """Stand-in for a module lock that records time spent waiting for it."""

    def __init__(self, lock, recorder: Recorder, name: str):
        self._lock = lock
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        with self._recorder.span(self._name):
            self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


def _cli_bytes(argv) -> int:
    """Size of the report files a ``cli.main`` call left at its --out prefix."""
    argv = list(argv or [])
    if "--out" not in argv:
        return 0
    prefix = argv[argv.index("--out") + 1]
    total = 0
    for suffix in (".json", ".csv", "_tidy.csv"):
        p = Path(prefix + suffix)
        if p.exists():
            total += p.stat().st_size
    return total


@contextmanager
def installed(recorder: Recorder):
    """Patch the library for the duration of the block; always restores."""
    from neumann_lab import _elim, analysis, birth_death, cli, convergence, models
    from neumann_lab import operators, semigroup
    from neumann_lab._expcf import POLES

    originals = []

    def patch(owner, attr, name, after=None):
        # a layer the library no longer has raises AttributeError here
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def cf_heat_counts(args, kwargs, result):
        recorder.count("elim.cf_heat.vertices", len(args[0]))
        recorder.count("elim.cf_heat.solves", len(POLES))

    def engine_counts(args, kwargs, result):
        if args[0].mode == "spectral":
            recorder.count("semigroup.engine_init.spectral")

    seen_clamps = weakref.WeakKeyDictionary()

    def clamp_counts(args, kwargs, result):
        engine = args[0]
        total = engine.telemetry.clamped_entries
        recorder.count("semigroup.clamped_entries", total - seen_clamps.get(engine, 0))
        seen_clamps[engine] = total

    def assemble_counts(args, kwargs, result):
        recorder.count("operators.assemble.vertices", len(result))

    def reference_counts(args, kwargs, result):
        recorder.count("convergence.reference_sets_used", result[1]["sets_used"])

    def map_counts(args, kwargs, result):
        recorder.count("convergence.truncations", len(args[1]))

    def cli_counts(args, kwargs, result):
        recorder.count("cli.bytes_written", _cli_bytes(args[0] if args else kwargs.get("argv")))

    try:
        patch(_elim, "cf_heat", "elim.cf_heat", cf_heat_counts)
        patch(_elim, "elimination_order", "elim.elimination_order")
        patch(_elim, "gth_factor", "elim.gth_factor")
        patch(_elim.GTHFactors, "solve_nonneg", "elim.solve_nonneg")
        originals.append((_elim, "_MP_LOCK", _elim._MP_LOCK))
        _elim._MP_LOCK = _TracedLock(_elim._MP_LOCK, recorder, "elim.mp_lock_wait")

        engine = semigroup.SemigroupEngine
        patch(engine, "__init__", "semigroup.engine_init", engine_counts)
        patch(engine, "heat_vec", "semigroup.heat_vec", clamp_counts)
        patch(engine, "resolvent_vec", "semigroup.resolvent_vec")
        patch(engine, "resolvent_residual", "semigroup.resolvent_residual")

        for owner in (operators, convergence, analysis):
            for attr in ("assemble_dirichlet", "assemble_neumann"):
                patch(owner, attr, "operators.assemble", assemble_counts)
        patch(cli, "assemble_neumann", "operators.assemble", assemble_counts)

        patch(models, "make_exhaustion", "models.make_exhaustion")
        for attr in ("neumann_convergence_experiment", "dirichlet_gap_experiment",
                     "l1_defect_experiment"):
            patch(convergence, attr, "convergence.experiment")
        for owner, attr in ((convergence, "dirichlet_reference"),
                            (convergence, "dirichlet_resolvent_reference"),
                            (analysis, "dirichlet_resolvent_reference")):
            patch(owner, attr, "convergence.experiment", reference_counts)
        patch(convergence, "_ordered_map", "convergence.ordered_map", map_counts)

        patch(analysis, "uniform_l1_check", "analysis.uniform_l1_check")
        patch(analysis, "feller_estimate", "analysis.feller_estimate")
        patch(birth_death, "classify", "birth_death.classify")
        patch(birth_death, "comb_beta_extraction", "birth_death.comb_beta_extraction")
        patch(cli, "main", "cli.main", cli_counts)
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
