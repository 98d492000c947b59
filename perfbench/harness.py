"""Measurement helpers shared by the perfbench workloads.

Everything here sits *outside* the program under test: wall clocks,
process memory, the host-speed probe, ``gc.callbacks`` pause
accounting, the closed- and open-loop drivers that feed a
:class:`repro.service.DecisionService`, and the :class:`Tracer` that
wraps public entry points of each layer for the traced pass.
"""

from __future__ import annotations

import collections
import ctypes
import gc
import math
import os
import resource
import statistics
import time
from typing import Callable, Sequence

perf = time.perf_counter

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


class BenchError(RuntimeError):
    """A correctness gate failed: the run must not report numbers."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`BenchError` unless ``condition`` holds (not an
    ``assert``: the gate must survive ``python -O``)."""
    if not condition:
        raise BenchError(message)


# -- memory -------------------------------------------------------------------


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE / 1e6
    except OSError:
        return peak_rss_mb()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def settle_memory() -> None:
    """Collect garbage and hand freed heap pages back to the OS, so the
    next phase starts from the same resident set whatever the thread
    timing was (glibc keeps freed memory per thread arena and returns
    it at moments that vary from run to run)."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    check(bool(ordered), "percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- host speed ---------------------------------------------------------------

#: What :func:`host_slowness`'s probe takes on the reference CPU.
REFERENCE_PROBE_S = 2.5e-3


def host_slowness() -> tuple[float, float]:
    """How slowly the host runs Python right now, relative to the
    reference CPU (2.0: half as fast), and the wall seconds it took to
    find out.

    The hosts this benchmark runs on share their cores: the same
    pure-Python loop takes anywhere from 1x to 1.8x as long from one
    few-second stretch to the next, and the process's CPU time grows
    exactly as fast as its wall time, so it is the core that slows.
    Each unit of measured work is therefore paired with a probe taken
    right after it and restated in reference-CPU terms (times divided
    by the slowness, rates multiplied by it); the workloads report the
    median over those units.  The probe is a fixed dict loop timed in
    thread CPU time, so waiting for the interpreter lock does not
    count.  Probe time is left out of every measured wall.
    """
    start = perf()
    cpu = time.thread_time()
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 255] = table.get(i & 255, 0) + i
    slowness = (time.thread_time() - cpu) / REFERENCE_PROBE_S
    return slowness, perf() - start


def timed_setups(
    build: Callable[[], object], repeats: int, before: Callable[[], None]
) -> tuple[object, float, list[float]]:
    """Run ``build`` ``repeats`` times from a cold start and keep the
    last result.  ``before`` resets process-wide caches so every
    repetition pays what a fresh process pays.  Earlier results are
    dropped before the next build, so peak memory holds one stack.
    Returns ``(stack, median reference-CPU seconds, seconds as
    measured)``; each build is restated with the mean of the probes
    taken just before and after it."""
    stack = None
    measured, restated = [], []
    for _ in range(repeats):
        stack = None
        settle_memory()
        before()
        slow_before, _ = host_slowness()
        start = perf()
        stack = build()
        elapsed = perf() - start
        slow_after, _ = host_slowness()
        measured.append(elapsed)
        restated.append(elapsed / ((slow_before + slow_after) / 2))
    return stack, statistics.median(restated), measured


def srac_misses(engine) -> int:
    """SRAC compile and live-set cache misses so far (the process-wide
    counters ``cache_stats()`` reports); a warm engine adds none."""
    srac = engine.cache_stats().srac
    return srac.compile_misses + srac.reachability_misses


# -- garbage collector --------------------------------------------------------


class GcWatch:
    """Counts collections and their pauses through ``gc.callbacks``
    while active.  The collector itself is left as users run it."""

    def __init__(self) -> None:
        self._started = 0.0
        self.pauses: list[tuple[int, float]] = []

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf()
        else:
            self.pauses.append((info["generation"], perf() - self._started))

    def __enter__(self) -> "GcWatch":
        self.pauses = []
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self) -> dict[str, float]:
        durations = [pause for _gen, pause in self.pauses]
        return {
            "gen2_collections": sum(1 for gen, _ in self.pauses if gen == 2),
            "pause_max_ms": max(durations, default=0.0) * 1e3,
            "pause_total_ms": sum(durations) * 1e3,
        }


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Wraps public entry points with wall-clock accumulators.

    :meth:`wrap` replaces ``owner.attr`` with a timing wrapper and
    remembers the original for :meth:`restore`.  An entry point that no
    longer exists is recorded in :attr:`missing` and left alone, so a
    renamed layer shows up in the report instead of crashing the run.
    Only the outermost call of a label is timed (re-entrant calls of
    the same label are not double counted).
    """

    def __init__(self) -> None:
        self.seconds: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        label: str,
        observe: Callable[[tuple, float, float], None] | None = None,
    ) -> None:
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        seconds, calls = self.seconds, self.calls
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                depth[0] -= 1
                seconds[label] += elapsed
                calls[label] += 1
                if observe is not None:
                    observe(args, start, elapsed)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- drivers ------------------------------------------------------------------

#: Length of one closed-loop segment (one probe after each).
SEGMENT_S = 0.1

#: The closed loop keeps ``CHUNK * DEPTH`` requests in flight.
CHUNK = 512
DEPTH = 8

#: Latency samples per open-loop window (one probe between windows);
#: each window's p99 has at least ten samples beyond it.
WINDOW = 1500


class Outcomes:
    """Verdict tally of a driven phase, plus the verdicts of the first
    ``keep`` requests (what the correctness gate compares)."""

    def __init__(self, keep: int = 0) -> None:
        self.keep = keep
        self.prefix: list[tuple[bool, str]] = []
        self.granted = 0
        self.denied = 0
        self.failed = 0
        self.kinds: collections.Counter = collections.Counter()

    @property
    def attempted(self) -> int:
        return self.granted + self.denied + self.failed

    def add(self, future) -> None:
        try:
            decision = future.result()
        except Exception:  # a failed request is counted, never hidden
            self.failed += 1
            if len(self.prefix) < self.keep:
                self.prefix.append((False, "failed"))
            return
        kind = decision.provenance.kind if decision.provenance else ""
        self.kinds[kind] += 1
        if decision.granted:
            self.granted += 1
        else:
            self.denied += 1
        if len(self.prefix) < self.keep:
            self.prefix.append((decision.granted, kind))


class Closed:
    """Result of :func:`drive_closed`."""

    def __init__(self) -> None:
        #: Wall seconds of the phase, probe time excluded.
        self.wall = 0.0
        self.sent = 0
        self.done = 0
        #: Reference-CPU request rate of each segment.
        self.segment_rates: list[float] = []
        #: RSS and peak RSS (MB) once ``min_requests`` had completed.
        self.rss_mark = 0.0
        self.peak_mark = 0.0


def drive_closed(
    service,
    make: Callable[[int, int], list],
    total: int,
    seconds: float,
    min_requests: int,
    outcomes: Outcomes,
    on_submit: Callable[[list, float], None] | None = None,
    observe_granted: bool = False,
    probe: bool = True,
) -> Closed:
    """Closed loop with ``CHUNK * DEPTH`` requests outstanding: submit
    a chunk, and once ``DEPTH`` chunks are in flight wait for the
    oldest before sending more (a fixed population of waiting clients).
    Submission stops once ``seconds`` have elapsed *and* at least
    ``min_requests`` went out, or when the ``total``-request stream
    ends.  ``make(a, b)`` builds requests ``a..b-1`` as
    ``(session, access, t)`` triples; ``observe_granted`` makes every
    client report its granted accesses back (the executing-client
    pattern of ``submit_many``).  With ``probe``, every
    :data:`SEGMENT_S` of sending ends with a host-speed probe and the
    segment's rate is recorded in reference-CPU terms.
    """
    pending: collections.deque = collections.deque()
    result = Closed()
    probing = 0.0
    start = segment_start = perf()
    segment_sent = 0

    def settle(futures: list) -> None:
        for future in futures:
            outcomes.add(future)
        result.done += len(futures)
        if not result.rss_mark and result.done >= min_requests:
            result.rss_mark = rss_mb()
            result.peak_mark = peak_rss_mb()

    while result.sent < total:
        now = perf()
        if probe and now - segment_start >= SEGMENT_S:
            slowness, spent = host_slowness()
            result.segment_rates.append(
                (result.sent - segment_sent) / (now - segment_start) * slowness
            )
            probing += spent
            segment_start, segment_sent = perf(), result.sent
        if result.sent >= min_requests and perf() - start - probing >= seconds:
            break
        end = min(result.sent + CHUNK, total)
        requests = make(result.sent, end)
        if on_submit is not None:
            on_submit(requests, perf())
        pending.append(
            service.submit_many(requests, observe_granted=observe_granted)
        )
        result.sent = end
        while len(pending) >= DEPTH:
            settle(pending.popleft())
    while pending:
        settle(pending.popleft())
    result.wall = perf() - start - probing
    if not result.rss_mark:
        result.rss_mark, result.peak_mark = rss_mb(), peak_rss_mb()
    return result


class Latency:
    """Latency samples (seconds) in windows of about :data:`WINDOW`.

    ``samples`` are as measured; ``restated`` are the same samples
    divided by the host slowness probed for their window.
    """

    def __init__(self, samples: list[float], restated: list[float],
                 starts: list[int], late_max: float = 0.0):
        self.samples = samples
        self.restated = restated
        #: Index of each window's first sample.
        self.starts = starts
        self.late_max = late_max

    @classmethod
    def by_count(cls, samples: list[float], restated: list[float]) -> "Latency":
        """Windows of :data:`WINDOW` consecutive samples (a short tail
        joins the window before it)."""
        starts = list(range(0, len(samples), WINDOW))
        if len(starts) > 1 and len(samples) - starts[-1] < WINDOW // 2:
            starts.pop()
        return cls(samples, restated, starts)

    def percentile_ms(self, q: float) -> float:
        """Median over windows of the window's ``q``-th percentile, in
        reference-CPU milliseconds."""
        bounds = self.starts + [len(self.restated)]
        return statistics.median(
            percentile(self.restated[a:b], q) for a, b in zip(bounds, bounds[1:])
        ) * 1e3

    def raw_ms(self, q: float) -> float:
        """The ``q``-th percentile over every sample, as measured."""
        return percentile(self.samples, q) * 1e3


def drive_open(
    service,
    make: Callable[[int, int], list],
    offsets: Sequence[float],
    burst: int,
    outcomes: Outcomes,
    on_submit: Callable[[list, float], None] | None = None,
    observe_granted: bool = False,
) -> Latency:
    """Open loop of request batches: batch ``j`` — requests
    ``j*burst .. j*burst+burst-1`` from ``make(a, b)``, the way a
    gateway forwards what one read brought in — is due ``offsets[j]``
    seconds into the schedule and is submitted then, whether or not
    earlier ones finished.  Each request's latency runs from its batch's
    due time (so a stalled generator charges the stall to every request
    it delays) to the moment its decision resolved; a failed request
    counts as infinitely late.

    Every :data:`WINDOW` requests the schedule pauses: the generator
    waits until the service is idle, probes the host's speed, and
    shifts every later due time by the pause, so the probe delays no
    request and the arrival process is unchanged.
    """
    count = len(offsets) * burst
    completed = [0.0] * count
    due = [0.0] * count
    futures: list = []
    slowness = [1.0] * count
    late_max = 0.0
    starts = []
    start = perf()
    for j, offset in enumerate(offsets):
        first = j * burst
        if not starts or first - starts[-1] >= WINDOW:
            paused = perf()
            check(service.drain(timeout=120.0), "open-loop phase failed to drain")
            window_slowness = host_slowness()[0]
            starts.append(first)
            start += perf() - paused
        batch_due = start + offset
        now = perf()
        if now < batch_due:
            time.sleep(batch_due - now)
            now = perf()
        late_max = max(late_max, now - batch_due)
        requests = make(first, first + burst)
        if on_submit is not None:
            on_submit(requests, now)
        batch = service.submit_many(requests, observe_granted=observe_granted)
        for k, future in enumerate(batch, first):
            due[k] = batch_due
            slowness[k] = window_slowness
            future.add_done_callback(
                lambda _f, k=k: completed.__setitem__(k, perf())
            )
        futures.extend(batch)
    check(service.drain(timeout=120.0), "open-loop phase failed to drain")
    samples = []
    for k, future in enumerate(futures):
        outcomes.add(future)
        failed = future.exception() is not None
        samples.append(math.inf if failed else completed[k] - due[k])
    restated = [sample / slow for sample, slow in zip(samples, slowness)]
    return Latency(samples, restated, starts, late_max)
