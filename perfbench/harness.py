"""Shared machinery: call timers, spans, self-time attribution, digests.

Host time is measured from outside the program, by timing calls into
public functions.  A :class:`Recorder` times each call (that timing *is*
the untraced measurement); when tracing it also keeps every call as a
span (name, start, end, parent) and runs ``cProfile`` so self time can be
attributed to the repository's modules and to numpy's C functions.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import pstats
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from metrics import NUMPY_SHARES, SELF_LAYERS


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: List[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def sample_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Percentile ``q`` of ``values`` where value i stands for ``weights[i]``
    samples (each request of a batch shares the batch's latency)."""
    return float(np.percentile(np.repeat(values, weights), q))


# ---------------------------------------------------------------------------
# digest of the simulated model's numbers
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """JSON-able form of ``value`` that is exact for floats."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [value.dtype.str, list(value.shape), hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot digest {type(value).__name__}")


def sim_digest(record: Any) -> str:
    """SHA-256 over every simulated number in ``record`` (floats bit-exact)."""
    blob = json.dumps(_canonical(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the reference loop: host seconds at a fixed machine speed
# ---------------------------------------------------------------------------

#: Seconds :func:`reference_loop` takes at the reference machine speed (a
#: 2-vCPU Xeon sandbox at its usual pace).  A scaled duration is a call's
#: host time as it would read at that speed.
REFERENCE_S = 0.010
#: ``Recorder`` paces: an event-loop call follows the loop's pace fully.  A
#: numpy-bound call drifts with it over minutes but follows it only partly
#: call by call, so it is scaled by the square root of the loop's pace.
EVENT_LOOP_PACE, NUMPY_PACE = 1.0, 0.5


def reference_loop() -> float:
    """Fixed pure-Python work shaped like the simulator's inner loop: a heap
    of timestamped events, generator hand-offs, dict counters, attribute
    reads and float arithmetic.  It calls nothing in the program under
    test, so no change to the program can move its time."""

    class Event:
        __slots__ = ("t", "n")

        def __init__(self, t: float, n: int):
            self.t, self.n = t, n

    def process(n: int):
        acc = 0.0
        for k in range(n):
            acc += yield k * 1.5
        return acc

    heap: List[Tuple[float, int, Event]] = []
    counters: Dict[int, float] = {}
    total = 0.0
    for i in range(2400):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, Event(i * 0.25, i & 63)))
    gen = process(6400)
    value = next(gen)
    for i in range(6399):
        t, _seq, ev = heapq.heappop(heap)
        counters[ev.n] = counters.get(ev.n, 0.0) + ev.t
        total += t * 1e-3 + value
        heapq.heappush(heap, (t + (i % 17) * 0.75, 2400 + i, ev))
        value = gen.send(ev.t)
    return total + sum(counters.values())


def reference_seconds() -> float:
    """Host seconds one :func:`reference_loop` takes right now."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# timing, spans and profiling
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into the program."""

    name: str
    start: float
    end: float
    parent: int  #: index of the enclosing span, -1 at top level


@dataclass
class Recorder:
    """Times calls; when ``tracing``, also keeps spans and runs cProfile.

    Durations go to ``samples[name]`` whether tracing or not.  ``profile``
    keys select one of several cProfile instances so one backend's calls
    can be attributed apart from the other's.  Only one profile runs at a
    time: a span nested in a profiled span is timed but not re-profiled.

    ``scaled[name]`` holds each call's host time at the reference machine
    speed.  A shared machine can change pace by up to 1.7x over seconds to
    minutes (seen on a 2-vCPU Xeon sandbox, in CPU time as much as in wall
    time).  Interpreter-bound calls (the simulator's event loop) slow down
    with it as :func:`reference_loop` does; calls that spend most of their
    time in numpy's bulk loops follow it much less.  A span's ``pace`` says
    how strongly its call follows the loop (``EVENT_LOOP_PACE``,
    ``NUMPY_PACE``; 0, the default, records the call as measured).  A span with
    ``pace`` above 0 runs the loop just before and just after the call,
    untimed, and records the call's duration times (``REFERENCE_S`` over
    the loop's mean time) to the power ``pace``.
    """

    tracing: bool = False
    samples: Dict[str, List[float]] = field(default_factory=dict)
    scaled: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, List[int]] = field(default_factory=dict)  #: work per timed call
    spans: List[Span] = field(default_factory=list)
    profiles: Dict[str, cProfile.Profile] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)
    _profiling: bool = False

    @contextmanager
    def span(self, name: str, profile: Optional[str] = None,
             pace: float = 0.0) -> Iterator[None]:
        """Time the enclosed call under ``name`` (profiled under ``profile``).

        A call with a ``profile`` key is a call into the program under test;
        it starts after a full garbage collection, so every such call meets
        the same collector state instead of paying for earlier garbage.
        With ``pace`` above 0 the call is also scaled to the reference speed.
        """
        if profile is not None:
            gc.collect()
        ref0 = reference_seconds() if pace else 0.0
        prof = None
        if self.tracing and profile is not None and not self._profiling:
            prof = self.profiles.setdefault(profile, cProfile.Profile())
            self._profiling = True
        index = -1
        if self.tracing:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent))
            self._stack.append(index)
        t0 = time.perf_counter()
        if prof is not None:
            prof.enable()
        try:
            yield
        finally:
            if prof is not None:
                prof.disable()
                self._profiling = False
            t1 = time.perf_counter()
            self.samples.setdefault(name, []).append(t1 - t0)
            speed = REFERENCE_S / (0.5 * (ref0 + reference_seconds())) if pace else 1.0
            self.scaled.setdefault(name, []).append((t1 - t0) * speed ** pace)
            if index >= 0:
                self._stack.pop()
                self.spans[index].start, self.spans[index].end = t0, t1

    def total(self, *names: str, scaled: bool = False) -> float:
        """Summed seconds of every call timed under any of ``names``
        (at the reference speed with ``scaled``)."""
        source = self.scaled if scaled else self.samples
        return float(sum(sum(source.get(name, ())) for name in names))

    def mean_ms(self, *names: str, scaled: bool = False) -> float:
        """Mean milliseconds per call timed under any of ``names``."""
        calls = sum(len(self.samples.get(name, ())) for name in names)
        return 1e3 * self.total(*names, scaled=scaled) / calls

    def work(self, *names: str) -> float:
        """Summed work units recorded under any of ``names``."""
        return float(sum(sum(self.counts.get(name, ())) for name in names))

    def self_times(self) -> Dict[str, float]:
        """Span self time by name: duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def dump(self, path) -> None:
        """Write the spans (relative seconds) and span self times as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans],
            "self_s": self.self_times(),
        }))


def _module_of(filename: str) -> Optional[str]:
    """``.../src/repro/simgpu/engine.py`` -> ``simgpu.engine`` (else None)."""
    parts = filename.replace("\\", "/").split("/")
    roots = [i for i in range(1, len(parts)) if parts[i - 1:i + 1] == ["src", "repro"]]
    if not roots:
        return None
    tail = parts[roots[-1] + 1:]
    if not tail:
        return None
    tail[-1] = tail[-1].rsplit(".", 1)[0]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail) or "repro"


def _is_numpy(func: Tuple[str, int, str]) -> bool:
    filename, _line, name = func
    return "/numpy/" in filename or "numpy" in name


def _merged_stats(profiles: List[cProfile.Profile]) -> pstats.Stats:
    stats = pstats.Stats(profiles[0])
    for extra in profiles[1:]:
        stats.add(extra)
    return stats


def attribute(profiles: List[cProfile.Profile]) -> Dict[str, float]:
    """Self seconds by layer from cProfile data.

    A function in ``repro`` counts for its module.  Any other function
    (numpy, heap operations, builtins, the standard library) is charged to
    the ``repro`` modules that called it, following its callers up to the
    nearest ``repro`` frame, in proportion to the time spent under each
    caller; time no ``repro`` frame claims stays in ``other``.  So a
    module's share includes the library calls it makes itself.

    Separately, and overlapping those shares, ``numpy`` holds all time
    inside numpy functions, and ``numpy.reduceat`` and ``numpy.ufunc_at``
    (the scatter-add) hold those two alone.
    """
    if not profiles:
        return {}
    stats = _merged_stats(profiles).stats
    out: Dict[str, float] = {}
    owners_memo: Dict[Tuple[str, int, str], Dict[str, float]] = {}

    def owners(func, visiting) -> Dict[str, float]:
        """Share of ``func``'s time owed to each repro module."""
        module = _module_of(func[0])
        if module is not None:
            return {module: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(c[2] for c in callers.values())
        if func in visiting or total <= 0:
            return {"other": 1.0}
        dist: Dict[str, float] = {}
        for caller, caller_stats in callers.items():
            for key, frac in owners(caller, visiting | {func}).items():
                dist[key] = dist.get(key, 0.0) + frac * caller_stats[2] / total
        owners_memo[func] = dist
        return dist

    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for key, frac in owners(func, frozenset()).items():
            out[key] = out.get(key, 0.0) + frac * tottime
        if _is_numpy(func):
            out["numpy"] = out.get("numpy", 0.0) + tottime
            for key, marker in (("numpy.reduceat", "'reduceat'"), ("numpy.ufunc_at", "'at'")):
                if marker in func[2]:
                    out[key] = out.get(key, 0.0) + tottime
    return out


def top_functions(profiles: List[cProfile.Profile], n: int = 5) -> List[Tuple[str, float]]:
    """The ``n`` functions with the most self time, with their percent share."""
    if not profiles:
        return []
    stats = _merged_stats(profiles).stats
    total = sum(v[2] for v in stats.values())
    ranked = sorted(stats.items(), key=lambda kv: -kv[1][2])[:n]
    return [(f"{_module_of(f[0]) or f[0].rsplit('/', 1)[-1]}:{f[2]}", 100.0 * v[2] / total)
            for f, v in ranked] if total else []


def per_call_ms(profiles: List[cProfile.Profile], module: str, function: str) -> float:
    """Mean cumulative ms per call of ``module.function`` while profiled."""
    if not profiles:
        return 0.0
    calls = seconds = 0.0
    for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in _merged_stats(
            profiles).stats.items():
        if name == function and _module_of(filename) == module:
            calls += nc
            seconds += ct
    return 1e3 * seconds / calls if calls else 0.0


def layer_shares(by_module: Dict[str, float]) -> Dict[str, float]:
    """Percent of all profiled self time per ``self.*`` metric bucket."""
    total = sum(v for k, v in by_module.items() if not k.startswith("numpy"))
    shares: Dict[str, float] = {}
    for layer, (prefixes, _target, _workload) in SELF_LAYERS.items():
        seconds = sum(
            v for k, v in by_module.items()
            if any(k == p or k.startswith(p + ".") for p in prefixes)
        )
        shares[layer] = 100.0 * seconds / total if total else 0.0
    for key in NUMPY_SHARES:
        shares[key] = 100.0 * by_module.get(key, 0.0) / total if total else 0.0
    return shares


def top_modules(by_module: Dict[str, float], n: int = 6) -> List[Tuple[str, float]]:
    """The ``n`` largest self-time modules with their percent share."""
    total = sum(v for k, v in by_module.items() if not k.startswith("numpy"))
    ranked = sorted(
        ((k, v) for k, v in by_module.items() if not k.startswith("numpy")),
        key=lambda kv: -kv[1],
    )
    return [(k, 100.0 * v / total) for k, v in ranked[:n]] if total else []


# ---------------------------------------------------------------------------
# the run's outcome
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    table: Dict[str, Tuple[float, str]] = field(default_factory=dict)  #: report-only
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    by_module: Dict[str, float] = field(default_factory=dict)  #: traced self seconds
    profiles: List[cProfile.Profile] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def op_raised(self, what: str, exc: BaseException) -> None:
        """Count an operation that raised as one failed attempt."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        print(f"[perfbench] {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)



# ---------------------------------------------------------------------------
# the workload loop
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload: inputs, set-up, and a repeatable round.

    A subclass generates every input from the seed in ``__init__`` (so no
    input generation lands in a timed region), builds the system under
    test in :meth:`build`, and runs one round of checked operations in
    :meth:`round`.  Round ``j`` uses distinct input ``j % distinct``; the
    first ``distinct`` rounds give the simulated record, so it does not
    depend on how many rounds the host managed in the time allowed.

    With ``fresh_state`` every round runs on a new build, and each of those
    builds is one more set-up sample: set-up is then sampled across the
    whole run instead of at one instant of a machine whose speed drifts.
    ``setup_pace`` is the build's ``pace`` (see :class:`Recorder`).
    """

    name = ""
    why = ""
    distinct = 1  #: distinct inputs, hence rounds always run
    setup_repeats = 3  #: builds timed before the first round
    fresh_state = False
    setup_pace = EVENT_LOOP_PACE  #: builds of simulator object graphs

    def build(self) -> Any:
        raise NotImplementedError

    def round(self, state: Any, j: int, rec: Recorder, out: Outcome) -> Any:
        """Run round ``j``; return its simulated record entry."""
        raise NotImplementedError

    def end_to_end(self, sims: List[Any], rec: Recorder, out: Outcome) -> Dict[str, float]:
        raise NotImplementedError

    def per_layer(self, sims: List[Any], rec: Recorder, out: Outcome) -> Dict[str, float]:
        raise NotImplementedError

    def execute(self, seconds: float, trace: bool, trace_dir=None) -> Outcome:
        """Set up, run rounds for ``seconds``, and compute the metrics.

        With ``trace`` the first half of the time runs untraced and the
        second half traced, which gives the tracing overhead; the
        per-layer metrics are returned instead of the end-to-end ones.
        """
        out = Outcome(self.name)
        setup = Recorder()
        state = None
        for _ in range(self.setup_repeats):
            state = None  # release the previous build before timing the next
            state = self._build(setup)
        rec = Recorder()
        sims: List[Any] = []
        untraced_s = seconds / 2 if trace else seconds
        walls = self._rounds(state, rec, out, untraced_s, self.distinct, sims, setup)
        if not trace:
            metrics = self.end_to_end(sims, rec, out)
            metrics["setup_s"] = median(setup.scaled["build"])
            out.table["unscaled_setup_s"] = (median(setup.samples["build"]), "s")
            metrics["peak_rss_mb"] = peak_rss_mb()
        else:
            trec = Recorder(tracing=True)
            traced = self._rounds(state, trec, out, seconds - untraced_s, 1, None, setup,
                                  start=len(walls))
            out.profiles = list(trec.profiles.values())
            out.by_module = attribute(out.profiles)
            metrics = self.per_layer(sims, rec, out)
            metrics["trace.overhead_pct"] = 100.0 * (median(traced) / median(walls) - 1.0)
            for be, prof in sorted(trec.profiles.items()):
                top = ", ".join(f"{k} {v:.1f}%" for k, v in top_modules(attribute([prof])))
                out.notes.append(f"self time by layer, {be} calls: {top}")
                top = ", ".join(f"{k} {v:.1f}%" for k, v in top_functions([prof]))
                out.notes.append(f"self time by function, {be} calls: {top}")
            if trace_dir is not None:
                trec.dump(trace_dir / f"{self.name}-spans.json")
        out.digest = sim_digest(sims)
        out.metrics = metrics
        return out

    def _build(self, setup: Recorder) -> Any:
        """One build, timed into ``setup`` (after a full garbage collection)."""
        gc.collect()
        with setup.span("build", pace=self.setup_pace):
            state = self.build()
        return state

    def _rounds(self, state, rec, out, seconds, min_rounds, sims, setup, start=0) -> List[float]:
        """Run rounds until ``seconds`` pass (at least ``min_rounds``)."""
        walls: List[float] = []
        deadline = time.perf_counter() + seconds
        j = start
        while len(walls) < min_rounds or time.perf_counter() < deadline:
            if self.fresh_state and j > 0:
                state = None
                state = self._build(setup)
            t0 = time.perf_counter()
            entry = self.round(state, j, rec, out)
            walls.append(time.perf_counter() - t0)
            if sims is not None and len(sims) < self.distinct:
                sims.append(entry)
            j += 1
        return walls
