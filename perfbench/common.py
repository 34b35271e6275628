"""Shared pieces of the repository benchmark: the span tracer, quantiles,
peak memory and open-loop pacing.

Nothing here reaches into ``repro`` internals: the tracer wraps public
entry points from the outside (see :class:`Tracer`), so an untraced run
executes exactly the program a user would.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: where runs leave span dumps and temporary artifact stores (ignored by git)
OUT_DIR = ".perfbench_out"

#: a run whose open-loop generator woke later than this (p99, ms) after
#: a due time it was idle for is invalid: the offered load was not the
#: schedule's
GEN_LATE_LIMIT_MS = 5.0


class BenchError(Exception):
    """A failed correctness, fidelity or validity check: the run prints
    no result."""


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty
    sample."""
    if not samples:
        raise BenchError("quantile of an empty sample")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return quantile(samples, 0.5)


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pace_until(due: float, spin_s: float = 0.001) -> float:
    """Block until ``time.perf_counter()`` reaches ``due``: sleep most of
    the gap, spin the last ``spin_s`` so wake-up jitter stays in
    microseconds.  Returns the wake time."""
    gap = due - time.perf_counter()
    if gap > spin_s:
        time.sleep(gap - spin_s)
    now = time.perf_counter()
    while now < due:
        now = time.perf_counter()
    return now


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

#: time (ms) of :func:`reference_work` the normalized times are given at:
#: about its median on the 2-vCPU VM the bounds were calibrated on
REF_NOMINAL_MS = 150.0
#: objects :func:`reference_work` allocates; its working set (about 12 MB)
#: spills the caches the way a compile of the benchmark's scores does
REF_SIZE = 80000


class _Node:
    __slots__ = ("key", "link", "weight")

    def __init__(self, key: str, link: int, weight: int) -> None:
        self.key = key
        self.link = link
        self.weight = weight


def reference_work() -> int:
    """A fixed piece of interpreter work shaped like a compiler pass:
    allocate small objects, index them in a dict by string key, follow
    links scattered over the heap and sort.  It never touches ``repro``,
    so a change to the program cannot move it; it creates no reference
    cycles, so no collection is owed after it."""
    nodes = [_Node(f"n{i}", (i * 7919) % REF_SIZE, i & 255) for i in range(REF_SIZE)]
    index = {node.key: node for node in nodes}
    total = 0
    for node in nodes:
        total += index[nodes[node.link].key].weight
    nodes.sort(key=lambda node: node.key[::-1])
    return total + len(nodes[0].key)


class Speed:
    """Reads how fast this shared VM runs right now.

    The VM's speed swings by up to 2.5x, for seconds or minutes at a time
    (a fixed piece of Python work took 13 to 31 ms within 90 seconds), and
    every CPU-bound time of a run swings with it.  A workload runs :meth:`sample` around what
    it measures and reports its times at the speed :data:`REF_NOMINAL_MS`
    stands for, so the scaling cancels most of the swing and keeps every
    change the program makes to its own time:

    * a sample of a second or so (a compile, a set-up) is multiplied by
      :meth:`scale` of the readings right before and right after it: over
      40 interleaved pairs a compile's time moved with the reference's (at
      150,000 objects) with an elasticity of 0.9 and a correlation of 0.88;
    * many small events (taps, beats) are multiplied by :meth:`scale` of
      the median of readings spread through the run: the medians of a
      one-second slice of events correlate only 0.1-0.25 with the
      readings around it, but a whole run's medians follow the run's.
    """

    def __init__(self) -> None:
        self.samples_ms: List[float] = []

    def sample(self) -> float:
        """Run the reference work once; returns its milliseconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            ms = (time.perf_counter() - start) * 1000.0
        finally:
            if enabled:
                gc.enable()
        self.samples_ms.append(ms)
        return ms

    @staticmethod
    def scale(before_ms: float, after_ms: float) -> float:
        """Multiply a time measured between two readings by this (divide
        a rate) to give it at the calibration speed."""
        return REF_NOMINAL_MS * 2.0 / (before_ms + after_ms)

    def ref_ms(self) -> float:
        return median(self.samples_ms)


def check_generator(late_ms: List[float], workload: str) -> float:
    """p99 of the generator's wake-up lateness; raises when the run's
    offered load drifted from its schedule."""
    p99 = quantile(late_ms, 0.99) if late_ms else 0.0
    if p99 > GEN_LATE_LIMIT_MS:
        raise BenchError(
            f"{workload}: open-loop generator ran {p99:.2f} ms late at p99 "
            f"(limit {GEN_LATE_LIMIT_MS} ms); run invalid"
        )
    return p99


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """Records a span around each wrapped call: ``(id, name, start, end,
    parent, event)``.  Spans stay in memory and are dumped as JSON lines
    by :meth:`dump`.

    :meth:`wrap` replaces an attribute of a module or class with a timing
    wrapper and :meth:`restore` puts every original back.  A name is
    wrapped where its caller looks it up (a module global for a
    function, the class for a method), so no machine instance is ever
    patched: patching ``machine.react`` per instance would demote
    word-resident fleet members and change what is measured.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: the current event id (or a zero-argument callable giving it)
        self.event: Any = None
        #: spans starting before this time belong to set-up and are left
        #: out of the per-layer numbers
        self.window_start = 0.0

    def current_event(self) -> Any:
        event = self.event
        return event() if callable(event) else event

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., str]] = None,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Wrap ``owner.attr``.  ``tag(*args)`` suffixes the span name
        (``name[tag]``); ``before(*args)`` and ``after(result, *args)``
        observe each call outside its span (counters that must be read
        where the work happens)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            span_name = name if tag is None else f"{name}[{tag(*args)}]"
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span_name, start, end, parent, self.current_event()))
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark_window(self) -> None:
        self.window_start = time.perf_counter()

    def layers(self) -> Dict[str, Tuple[int, float]]:
        """``span name -> (calls, self seconds)`` over the measured
        window.  A span's self time is its duration minus the time its
        child spans cover (children of one synchronous call never
        overlap)."""
        child_time: Dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: Dict[str, List[float]] = {}
        for sid, name, start, end, _, _ in self.spans:
            if start < self.window_start:
                continue
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time.get(sid, 0.0)
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, event in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "event": event},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_sum(layers: Dict[str, Tuple[int, float]], prefix: str) -> Tuple[int, float]:
    """Calls and self seconds of every span named ``prefix`` or
    ``prefix[...]``."""
    calls, secs = 0, 0.0
    for name, (c, s) in layers.items():
        if name == prefix or name.startswith(prefix + "["):
            calls += c
            secs += s
    return calls, secs


def mean_self(layers: Dict[str, Tuple[int, float]], prefix: str, scale: float) -> float:
    """Mean self time per call of a layer, in seconds × ``scale``."""
    calls, secs = layer_sum(layers, prefix)
    return secs / calls * scale if calls else 0.0


def write_json(path: str, payload: Any) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)

