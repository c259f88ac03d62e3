"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start ns, end ns, parent span, op id, phase)``.
Spans are recorded by wrapping calls into the stack's public functions
from the benchmark's own files (see ``instrument.py``); nothing in
``src/`` knows it is being traced.  Each thread appends to its own flat
``array('q')`` (six int64 per span), so recording takes no lock and a
million spans cost 48 MB instead of a million Python tuples.

Self time of a span is its duration minus the durations of its direct
children, which is exact because a thread's spans nest strictly.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

FIELDS = 6  # name, start, end, parent, op, phase
PHASES = ("window", "rebuild")


class _ThreadSpans:
    __slots__ = ("name", "spans", "stack", "op", "phase", "counters")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.phase = 0
        #: per phase: summed counters and peak values
        self.counters: list[tuple[dict, dict]] = [({}, {}) for _ in PHASES]


class Tracer:
    """Collects spans per thread; summarizes count, total and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._register = threading.Lock()

    def _state(self) -> _ThreadSpans:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadSpans(threading.current_thread().name)
            self._local.st = st
            with self._register:
                self._threads.append(st)
        return st

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_op(self, op: int) -> None:
        """Tag the calling thread's following spans with op id ``op``."""
        self._state().op = op

    def set_phase(self, phase: str) -> None:
        """Charge the calling thread's following spans and counts to
        ``phase`` (one of :data:`PHASES`)."""
        self._state().phase = PHASES.index(phase)

    def count(self, key: str, amount: float) -> None:
        """Add to a per-thread counter (summed across threads on read)."""
        st = self._state()
        counters = st.counters[st.phase][0]
        counters[key] = counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen for ``key``."""
        st = self._state()
        peaks = st.counters[st.phase][1]
        if value > peaks.get(key, 0):
            peaks[key] = value

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` wrapped in a span named ``name``.

        ``on_call(args, kwargs, result)`` runs after the call returns,
        inside the span, for wrappers that also count work.
        """
        nid = self.name_id(name)
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = state()
            spans = st.spans
            stack = st.stack
            idx = len(spans) // FIELDS
            spans.extend((nid, 0, 0, stack[-1] if stack else -1, st.op, st.phase))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                base = idx * FIELDS
                spans[base + 1] = start
                spans[base + 2] = end

        return traced

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """``(thread name, spans as an (n, 6) int64 view)`` per thread.

        The views share the recording buffers: drop them before the
        next recorded span.
        """
        return [
            (st.name, np.frombuffer(st.spans, dtype=np.int64).reshape(-1, FIELDS))
            for st in self._threads
        ]

    def save(self, path: str) -> None:
        """Write the spans (int64 columns: name id, start ns, end ns,
        parent row, op id, phase) per thread, with the name tables."""
        arrays = {f"{i}/{thread}": arr for i, (thread, arr) in enumerate(self.arrays())}
        np.savez_compressed(path, names=np.array(self.names), phases=np.array(PHASES), **arrays)

    def summary(self, phase: str) -> dict:
        """One phase's spans: count, total and self seconds per span
        name; per thread, the summed duration of its top-level spans and
        its self times by name; and the phase's counters."""
        want = PHASES.index(phase)
        n = len(self.names)
        count = np.zeros(n)
        total = np.zeros(n)
        self_s = np.zeros(n)
        threads = {}
        counters: dict[str, float] = {}
        for st, (thread, arr) in zip(self._threads, self.arrays()):
            summed, peaks = st.counters[want]
            for key, value in summed.items():
                counters[key] = counters.get(key, 0) + value
            for key, value in peaks.items():
                counters[key] = max(counters.get(key, 0), value)
            if not len(arr):
                continue
            dur = (arr[:, 2] - arr[:, 1]).astype(np.float64) / 1e9
            parent = arr[:, 3]
            nested = parent >= 0
            children = np.bincount(parent[nested], weights=dur[nested], minlength=len(arr))
            own = dur - children
            mine = arr[:, 5] == want
            name = arr[mine, 0]
            count += np.bincount(name, minlength=n)
            total += np.bincount(name, weights=dur[mine], minlength=n)
            thread_self = np.bincount(name, weights=own[mine], minlength=n)
            self_s += thread_self
            threads[thread] = {
                "top_level_s": float(dur[mine & ~nested].sum()),
                "self_s": {self.names[i]: float(thread_self[i]) for i in range(n)},
            }
        by_name = {
            self.names[i]: {
                "count": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i in range(n)
        }
        return {"spans": by_name, "threads": threads, "counters": counters}
