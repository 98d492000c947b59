"""The three workloads that drive :class:`repro.service.DecisionService`.

* ``zipf-scale``  — EXP-SCALE's Zipf/diurnal stream over a large
  bulk-opened resident population;
* ``hot-sessions`` — 64 hot sessions with long per-session runs;
* ``session-churn`` — cycles of bulk-open a cohort, drive a stream
  over it (executing clients: granted accesses are observed), expire
  every session of the cohort.

Each run first drives an open-loop phase (Poisson arrivals at a fixed
offered rate, for latency) on the freshly built stack, then a closed
loop (a fixed number of requests in flight, for throughput) on the
continuation of the same stream.  Every workload drives with one
submitting thread and ``workers=1`` — two threads of load — and
replays one deterministic stream from a fresh state.

Before anything is timed, a prefix of the stream is driven through a
separate service stack and must match per-request
:meth:`repro.rbac.engine.AccessControlEngine.decide` on a freshly built
engine by verdict and provenance kind; the timed run's own prefix is
compared with the same reference afterwards.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

import repro.obs as obs
import repro.service.service as service_module
from repro.rbac.engine import AccessControlEngine
from repro.service import DecisionService, ShardedEngine
from repro.srac.reachability import clear_caches
from repro.traces.trace import AccessKey
from repro.workloads.scale import ScaleSpec, build_policy, build_workload

from harness import (
    GcWatch,
    Outcomes,
    Tracer,
    check,
    drive_closed,
    drive_open,
    host_slowness,
    peak_rss_mb,
    percentile,
    perf,
    rss_mb,
    settle_memory,
    srac_misses,
    timed_setups,
)

#: Service shape of every driven phase.  One worker: with the
#: submitting thread that makes two threads of load.
SHARDS = 16
WORKERS = 1
MAX_BATCH = 256
MAX_WAIT_S = 0.002
QUEUE_DEPTH = 1 << 16

#: Requests in the correctness-gate prefix.
GATE_PREFIX = 4096

#: The access primed sessions have already made ``count_bound + 1`` times.
PRIME_ACCESS = AccessKey.of("exec", "rsw", "s0")


@dataclasses.dataclass(frozen=True)
class Shape:
    """Input sizes of one service workload and why they were chosen."""

    spec: ScaleSpec
    #: Open-loop offered rate (requests/s), its request count, and the
    #: requests per Poisson arrival (one submitted batch).
    open_rate: float
    open_requests: int
    burst: int
    #: Fixed work of the closed phase (requests; cycles for churn): it
    #: completes even if ``--seconds`` ran out first, and memory growth
    #: is measured over exactly this much work.
    min_work: int
    setup_repeats: int
    why: str
    #: Every ``primed_every``-th session by popularity rank (ranks 1,
    #: 1 + n, ...) starts past its counting bound, so its ``rsw``
    #: requests are spatially denied: the stream carries denials in
    #: the same share whatever the seed (0: no priming).
    primed_every: int = 0


ZIPF = Shape(
    spec=ScaleSpec(
        sessions=200_000,
        users=10_000,
        servers=200,
        requests=400_000,
        zipf_s=1.1,
        count_bound=1,
    ),
    open_rate=2_000.0,
    open_requests=12_000,
    burst=32,
    min_work=40_000,
    setup_repeats=3,
    primed_every=8,
    why=(
        "200k resident sessions, Zipf s=1.1: most micro-batch session "
        "groups are singletons, so per-session sweep set-up dominates"
    ),
)

HOT = Shape(
    spec=ScaleSpec(
        sessions=64,
        users=8,
        servers=5,
        requests=500_000,
        zipf_s=0.8,
        count_bound=50,
    ),
    open_rate=2_500.0,
    open_requests=12_000,
    burst=32,
    min_work=100_000,
    setup_repeats=9,
    primed_every=3,
    why=(
        "64 sessions with long per-session runs: the sweep's fixed cost "
        "is amortised, so the service layer and GC are what remain"
    ),
)

#: Each churn cycle bulk-opens ``spec.sessions`` sessions, decides the
#: ``spec.requests``-request cohort stream over them (granted accesses
#: observed, so histories and arenas grow), then expires the cohort.
CHURN = Shape(
    spec=ScaleSpec(
        sessions=5_000,
        users=500,
        servers=20,
        requests=8_000,
        zipf_s=0.8,
        count_bound=3,
    ),
    open_rate=1_000.0,
    open_requests=8_000,
    burst=32,
    min_work=6,
    setup_repeats=9,
    why=(
        "5k-session cohorts opened, driven and expired per cycle: row "
        "recycling and arena appends, which the steady workloads never do"
    ),
)


def _service(engine: ShardedEngine) -> DecisionService:
    return DecisionService(
        engine,
        workers=WORKERS,
        queue_depth=QUEUE_DEPTH,
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
    )


# -- inputs -------------------------------------------------------------------------


class Stream:
    """A generated request stream in compact form.

    Sessions are relabelled by popularity rank (index 0 is the session
    the stream hits most), so the seed varies the draws but not which
    users — and so which shards — carry the hot set.  Accesses are kept
    as codes into the stream's alphabet and times as a numpy array:
    the stream's own objects then add nothing to the heap the garbage
    collector walks during the measured phases.
    """

    def __init__(self, spec: ScaleSpec):
        workload = build_workload(spec)
        counts = np.bincount(workload.session_index, minlength=spec.sessions)
        order = np.argsort(-counts, kind="stable")
        rank = np.empty(spec.sessions, dtype=np.int64)
        rank[order] = np.arange(spec.sessions)
        self.spec = spec
        self.user_names = [workload.user_names[i] for i in order.tolist()]
        self.touched = int((counts > 0).sum())
        self.targets = rank[workload.session_index]
        self.times = workload.times
        self.alphabet = workload.alphabet
        code = {access: i for i, access in enumerate(self.alphabet)}
        self.codes = np.fromiter(
            (code[a] for a in workload.accesses), dtype=np.int32,
            count=spec.requests,
        )

    def __len__(self) -> int:
        return len(self.times)

    def request(self, k: int, handles, t_shift: float = 0.0) -> tuple:
        return (
            handles[int(self.targets[k])],
            self.alphabet[self.codes[k]],
            float(self.times[k]) + t_shift,
        )

    def maker(self, handles, offset: int = 0, t_shift: float = 0.0):
        """``make(a, b)``: requests ``offset+a .. offset+b-1``."""
        alphabet = self.alphabet

        def make(a: int, b: int) -> list:
            a += offset
            b += offset
            return [
                (handles[s], alphabet[c], t + t_shift)
                for s, c, t in zip(
                    self.targets[a:b].tolist(),
                    self.codes[a:b].tolist(),
                    self.times[a:b].tolist(),
                )
            ]

        return make

    def primed(self, every: int) -> frozenset[int]:
        """Sessions to prime: every ``every``-th touched rank from 1."""
        return frozenset(range(1, self.touched, every)) if every else frozenset()


class Handles:
    """Session handles of a bulk-opened population, made on first use
    (a client materialises a handle when its session first sends a
    request; the store itself keeps no per-session object)."""

    def __init__(self, engine: ShardedEngine, user_names: list[str], t: float):
        rows = engine.open_sessions(user_names, t, roles=("agent",))
        shard_of_user: dict[str, int] = {}
        for name in user_names:
            if name not in shard_of_user:
                shard_of_user[name] = engine.shard_index(name)
        shard = np.fromiter(
            (shard_of_user[name] for name in user_names),
            dtype=np.int64,
            count=len(user_names),
        )
        # The bulk loader keeps arrival order within each shard.
        row = np.empty(len(user_names), dtype=np.int64)
        for index, opened in rows.items():
            row[shard == index] = opened
        self._engine = engine
        self._shard = shard
        self._row = row
        self._made: dict[int, object] = {}

    def __getitem__(self, i: int):
        handle = self._made.get(i)
        if handle is None:
            handle = self._made[i] = self._engine.session_at(
                int(self._shard[i]), int(self._row[i])
            )
        return handle


def _prime(engine, sessions, count_bound: int) -> None:
    """Observe ``PRIME_ACCESS`` past the counting bound on ``sessions``."""
    for session in sessions:
        for _ in range(count_bound + 1):
            engine.observe(session, PRIME_ACCESS)


# -- correctness gate ---------------------------------------------------------------


def _reference(stream: Stream, primed, count: int, observe: bool) -> list:
    """Verdict and provenance kind of the first ``count`` requests,
    decided one at a time by a freshly built scalar engine."""
    spec = stream.spec
    engine = AccessControlEngine(build_policy(spec))
    sessions: dict[int, object] = {}
    out = []
    for k in range(count):
        target = int(stream.targets[k])
        session = sessions.get(target)
        if session is None:
            session = engine.authenticate(stream.user_names[target], 0.0)
            engine.activate_role(session, "agent", 0.0)
            if target in primed:
                _prime(engine, [session], spec.count_bound)
            sessions[target] = session
        _session, access, t = stream.request(k, sessions)
        decision = engine.decide(session, access, t, history=None)
        if observe and decision.granted:
            engine.observe(session, access)
        out.append((decision.granted, decision.provenance.kind))
    return out


def _compare(name: str, got: list, want: list) -> None:
    check(len(got) == len(want), f"{name}: {len(got)} decisions, want {len(want)}")
    for k, (a, b) in enumerate(zip(got, want)):
        check(a == b, f"{name}: request {k} decided {a}, reference {b}")
    granted = sum(1 for ok, _kind in want if ok)
    check(
        0 < granted < len(want),
        f"{name}: degenerate stream ({granted} grants of {len(want)})",
    )


def _gate(stream: Stream, primed, observe: bool) -> list:
    """Drive the prefix through a fresh service stack (bulk-opened
    sessions, micro-batched service) and compare it with the scalar
    reference, which is returned for the timed run's own check."""
    count = GATE_PREFIX
    reference = _reference(stream, primed, count, observe)
    touched = sorted({int(i) for i in stream.targets[:count]})
    engine = ShardedEngine(build_policy(stream.spec), shards=SHARDS)
    opened = Handles(engine, [stream.user_names[i] for i in touched], 0.0)
    handles = {i: opened[k] for k, i in enumerate(touched)}
    _prime(engine, [handles[i] for i in touched if i in primed], stream.spec.count_bound)
    engine.prewarm(stream.alphabet)
    outcomes = Outcomes(keep=count)
    with _service(engine) as service:
        drive_closed(
            service, stream.maker(handles), count, 0.0, count, outcomes,
            observe_granted=observe, probe=False,
        )
        stats = service.service_stats()
    _compare("gate", outcomes.prefix, reference)
    if not observe:
        check(stats.vector_fallbacks == 0, f"gate: {stats.vector_fallbacks} vector fallbacks")
        check(stats.vector_decisions > 0, "gate: the vector sweep never ran")
    return reference


# -- tracing ------------------------------------------------------------------------


class ServiceTrace:
    """Per-layer accounting for the service workloads, gathered by
    wrapping each layer's public entry points from outside."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.submitted_at: dict[float, float] = {}
        self.queue_waits: list[float] = []
        self.sweep_requests = 0
        self.sweep_sessions = 0
        self.sweep_singletons = 0
        tracer = self.tracer
        tracer.wrap(service_module, "sweep_interleaved", "sweep", self._on_sweep)
        tracer.wrap(AccessControlEngine, "decide", "decide", self._on_decide)
        tracer.wrap(AccessControlEngine, "open_sessions", "open_sessions")
        tracer.wrap(AccessControlEngine, "expire_sessions", "expire_sessions")
        tracer.wrap(AccessControlEngine, "prewarm", "prewarm")

    def on_submit_many(self, requests: list, now: float) -> None:
        stamp = self.submitted_at
        for request in requests:
            stamp[request[2]] = now

    def on_submit(self, request: tuple, now: float) -> None:
        self.submitted_at[request[2]] = now

    def _wait(self, t: float, start: float) -> None:
        submitted = self.submitted_at.pop(t, None)
        if submitted is not None:
            self.queue_waits.append(start - submitted)

    def _on_sweep(self, args: tuple, start: float, _elapsed: float) -> None:
        entries = args[1]
        groups: dict[int, int] = {}
        for session, _access, t in entries:
            groups[id(session)] = groups.get(id(session), 0) + 1
            self._wait(t, start)
        self.sweep_requests += len(entries)
        self.sweep_sessions += len(groups)
        self.sweep_singletons += sum(1 for n in groups.values() if n == 1)

    def _on_decide(self, args: tuple, start: float, _elapsed: float) -> None:
        if len(args) > 3:
            self._wait(args[3], start)

    def reset(self) -> None:
        self.tracer.reset()
        self.submitted_at.clear()
        self.queue_waits.clear()
        self.sweep_requests = self.sweep_sessions = self.sweep_singletons = 0

    def layer_metrics(self, drive_wall: float, service, engine) -> dict:
        """Layer numbers of the closed phase.  The service's self time
        is the drive wall minus the time inside the layers below it."""
        seconds, calls = self.tracer.seconds, self.tracer.calls
        stats = service.service_stats()
        caches = engine.cache_stats()
        sweep_s = seconds["sweep"]
        decide_s = seconds["decide"]
        # Session admin runs between drives in the same wall (churn).
        admin_s = seconds["open_sessions"] + seconds["expire_sessions"]
        check(
            sweep_s + decide_s + admin_s <= drive_wall,
            f"layer time {sweep_s + decide_s + admin_s:.3f}s exceeds the "
            f"drive wall {drive_wall:.3f}s",
        )
        lookups = caches.candidate_hits + caches.candidate_misses
        requests = self.sweep_requests
        return {
            "service.batches": stats.batches,
            "service.batch_size_mean": stats.mean_batch_size,
            "service.self_s": drive_wall - sweep_s - decide_s - admin_s,
            "service.queue_wait_p99_ms": (
                percentile(self.queue_waits, 99) * 1e3 if self.queue_waits else 0.0
            ),
            "service.failed": stats.errors + stats.rejected + stats.cancelled,
            "sweep.calls": calls["sweep"],
            "sweep.s": sweep_s,
            "sweep.us_per_request": sweep_s / requests * 1e6 if requests else 0.0,
            "sweep.sessions_per_call": (
                self.sweep_sessions / calls["sweep"] if calls["sweep"] else 0.0
            ),
            "sweep.singleton_share": (
                self.sweep_singletons / self.sweep_sessions
                if self.sweep_sessions
                else 0.0
            ),
            "engine.vector_fallbacks": caches.vector_fallbacks,
            "engine.decide.calls": calls["decide"],
            "engine.decide.s": decide_s,
            "engine.open_sessions_s": seconds["open_sessions"],
            "engine.expire_sessions_s": seconds["expire_sessions"],
            "engine.candidate_hit_ratio": (
                caches.candidate_hits / lookups if lookups else 0.0
            ),
        }


def _store_metrics() -> dict:
    """Store size from the registry's collectors (every live engine)."""
    collected = obs.REGISTRY.snapshot().get("collected", {})
    store = collected.get("engine.sessions.store_bytes", 0.0)
    resident = collected.get("engine.sessions.resident", 0.0)
    return {
        "store.bytes_mb": store / 1e6,
        "store.bytes_per_resident": store / resident if resident else 0.0,
    }


# -- runs ---------------------------------------------------------------------------


class _Stack:
    """One built service stack: engine, handles and service."""

    def __init__(self, stream: Stream, primed, populate: bool):
        spec = stream.spec
        self.engine = ShardedEngine(build_policy(spec), shards=SHARDS)
        self.handles = None
        if populate:
            self.handles = Handles(self.engine, stream.user_names, 0.0)
            _prime(
                self.engine, [self.handles[i] for i in sorted(primed)], spec.count_bound
            )
        self.engine.prewarm(stream.alphabet)
        self.service = _service(self.engine)

    def close(self) -> None:
        self.service.shutdown(wait=True)


def _passes(shape: Shape, build, measure, trace: bool) -> dict:
    """The untraced pass, and for ``--trace 1`` a second pass from a
    fresh set-up with the layer wrappers installed.  Each pass times
    ``shape.setup_repeats`` cold set-ups (median), then ``measure``s
    the last stack."""
    report = {}
    for traced in (False, True) if trace else (False,):
        tracing = ServiceTrace() if traced else None
        try:
            stack, setup_s, measured = timed_setups(
                build, shape.setup_repeats, clear_caches
            )
            setup_layers = {}
            if tracing:
                per_setup = {
                    k: v / shape.setup_repeats for k, v in tracing.tracer.seconds.items()
                }
                setup_layers["engine.prewarm_s"] = per_setup.get("prewarm", 0.0)
                if per_setup.get("open_sessions"):
                    setup_layers["engine.open_sessions_s"] = per_setup["open_sessions"]
                tracing.reset()
            # Engines of earlier repetitions are gone; start the
            # registry's totals from the live stack only.
            obs.reset()
            try:
                result = measure(stack, tracing)
            finally:
                stack.close()
        finally:
            if tracing:
                tracing.tracer.restore()
        stack = None
        settle_memory()
        result["setup_s"] = setup_s
        result["raw"]["setup_s"] = statistics.median(measured)
        result["setup_samples"] = measured
        result["layers"].update(setup_layers)
        report["traced" if traced else "untraced"] = result
        if traced:
            report["missing"] = tracing.tracer.missing
    if trace:
        layers = report["traced"]["layers"]
        layers["trace.overhead"] = (
            report["traced"]["throughput_rps"] / report["untraced"]["throughput_rps"]
        )
        layers["trace.missing_entry_points"] = len(report["missing"])
    return report


def _open_phase(service, stream, handles, offsets, burst, reference, tracing,
                observe=False, t_shift=0.0):
    """Open-loop latency phase; checks its prefix against the reference."""
    outcomes = Outcomes(keep=len(reference))
    settle_memory()
    with GcWatch() as gcw:
        latency = drive_open(
            service,
            stream.maker(handles, t_shift=t_shift),
            offsets,
            burst,
            outcomes,
            on_submit=tracing.on_submit_many if tracing else None,
            observe_granted=observe,
        )
    _compare("timed prefix", outcomes.prefix, reference)
    check(outcomes.failed == 0, f"{outcomes.failed} open-loop requests failed")
    layers = {}
    if tracing:
        layers["driver.late_max_ms"] = latency.late_max * 1e3
        layers.update({f"gc.{k}": v for k, v in gcw.summary().items()})
        tracing.reset()
    return latency, outcomes, layers


def _offsets(shape: Shape, seed: int) -> list[float]:
    """Poisson arrival times of the open-loop batches."""
    rng = np.random.default_rng(seed)
    batches = shape.open_requests // shape.burst
    return np.cumsum(
        rng.exponential(shape.burst / shape.open_rate, batches)
    ).tolist()


def _result(throughput: float, raw_throughput: float, latency, requests: int,
            wall: float, peak: float, growth: float, attempted: int,
            failed: int, layers: dict) -> dict:
    """One pass's numbers: reference-CPU values, and ``raw`` as measured."""
    return {
        "throughput_rps": throughput,
        "latency_p50_ms": latency.percentile_ms(50),
        "latency_p99_ms": latency.percentile_ms(99),
        "peak_rss_mb": peak,
        "rss_growth_mb": growth,
        "raw": {
            "throughput_rps": raw_throughput,
            "latency_p50_ms": latency.raw_ms(50),
            "latency_p99_ms": latency.raw_ms(99),
        },
        "closed_requests": requests,
        "closed_wall_s": wall,
        "open_requests": len(latency.samples),
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }


def run_steady(name: str, shape: Shape, seed: int, seconds: float, trace: bool):
    """``zipf-scale`` and ``hot-sessions``: gate, build, open-loop phase
    on the fresh stack, then the closed phase on the continuation of
    the stream."""
    stream = Stream(dataclasses.replace(shape.spec, seed=seed))
    primed = stream.primed(shape.primed_every)
    offsets = _offsets(shape, seed)
    reference = _gate(stream, primed, observe=False)

    def measure(stack, tracing) -> dict:
        service, engine = stack.service, stack.engine
        misses_before = srac_misses(engine)
        latency, open_outcomes, layers = _open_phase(
            service, stream, stack.handles, offsets, shape.burst, reference,
            tracing,
        )
        check(
            service.service_stats().vector_fallbacks == 0,
            "open-loop phase fell back to the scalar loop",
        )
        service.reset_stats()
        outcomes = Outcomes()
        settle_memory()
        rss_start = rss_mb()
        closed = drive_closed(
            service,
            stream.maker(stack.handles, offset=shape.open_requests),
            len(stream) - shape.open_requests,
            seconds,
            shape.min_work,
            outcomes,
            on_submit=tracing.on_submit_many if tracing else None,
        )
        stats = service.service_stats()
        check(outcomes.failed == 0, f"{outcomes.failed} closed-loop requests failed")
        check(stats.vector_fallbacks == 0, f"{stats.vector_fallbacks} vector fallbacks")
        check(
            0 < outcomes.granted < outcomes.attempted,
            f"degenerate closed phase: {outcomes.granted} grants "
            f"of {outcomes.attempted}",
        )
        if tracing:
            layers.update(tracing.layer_metrics(closed.wall, service, engine))
            layers.update(_store_metrics())
            layers["srac.cache_misses"] = srac_misses(engine) - misses_before
        return _result(
            statistics.median(closed.segment_rates),
            closed.sent / closed.wall,
            latency,
            closed.sent,
            closed.wall,
            closed.peak_mark,
            closed.rss_mark - rss_start,
            outcomes.attempted + open_outcomes.attempted,
            outcomes.failed + open_outcomes.failed,
            layers,
        )

    report = _passes(shape, lambda: _Stack(stream, primed, True), measure, trace)
    report["inputs"] = _inputs(name, shape, stream)
    return report


def run_churn(seed: int, seconds: float, trace: bool):
    """``session-churn``: one open-loop cycle, then closed cycles of
    open cohort -> drive -> expire all.  Every closed cycle replays the
    same stream over a fresh cohort at a later time, so every cycle
    must decide exactly as the first.  A cycle is the unit of work:
    it is restated with the probes just before and after it, and the
    reported rate is the median over cycles."""
    shape = CHURN
    stream = Stream(dataclasses.replace(shape.spec, seed=seed))
    offsets = _offsets(shape, seed)
    reference = _gate(stream, frozenset(), observe=True)
    horizon = float(stream.times[-1]) + 1.0
    cohort = stream.spec.sessions

    def cycle(stack, index: int, drive) -> None:
        """Bulk-open the cohort at its start time, ``drive`` it, expire it."""
        engine = stack.engine
        t0 = index * horizon
        drive(Handles(engine, stream.user_names, t0), t0)
        expired = engine.expire_sessions(now=t0 + horizon, idle_for=0.0)
        check(expired == cohort, f"cycle {index}: expired {expired} of {cohort}")
        check(engine.resident_sessions() == 0, f"cycle {index}: sessions left resident")

    def measure(stack, tracing) -> dict:
        service = stack.service
        misses_before = srac_misses(stack.engine)
        opened = {}

        def drive_open_cycle(handles, t0):
            opened["result"] = _open_phase(
                service, stream, handles, offsets, shape.burst, reference,
                tracing, observe=True, t_shift=t0,
            )

        cycle(stack, 0, drive_open_cycle)
        latency, open_outcomes, layers = opened["result"]
        tallies, rates, rss_after, store_after = [], [], [], []
        index = 1
        wall = peak = 0.0
        settle_memory()
        while index <= shape.min_work or wall < seconds:
            outcomes = Outcomes()

            def drive(handles, t0):
                drive_closed(
                    service, stream.maker(handles, t_shift=t0), len(stream),
                    0.0, len(stream), outcomes,
                    on_submit=tracing.on_submit_many if tracing else None,
                    observe_granted=True, probe=False,
                )

            slow_before, _ = host_slowness()
            start = perf()
            cycle(stack, index, drive)
            elapsed = perf() - start
            slow_after, _ = host_slowness()
            wall += elapsed
            rates.append(outcomes.attempted / elapsed * (slow_before + slow_after) / 2)
            rss_after.append(rss_mb())
            if index == shape.min_work:
                peak = peak_rss_mb()
            if tracing:
                store_after.append(_store_metrics()["store.bytes_mb"])
            tally = (outcomes.granted, outcomes.denied, dict(outcomes.kinds))
            check(outcomes.failed == 0, f"cycle {index}: {outcomes.failed} requests failed")
            check(
                not tallies or tally == tallies[0],
                f"cycle {index} decided {tally}, first closed cycle {tallies[:1]}",
            )
            check(0 < outcomes.granted < outcomes.attempted, f"cycle {index}: degenerate {tally}")
            tallies.append(tally)
            index += 1
        total = sum(granted + denied for granted, denied, _ in tallies)
        if tracing:
            layers.update(tracing.layer_metrics(wall, service, stack.engine))
            layers["store.bytes_mb"] = store_after[-1]
            layers["store.growth_ratio"] = store_after[shape.min_work - 1] / store_after[0]
            layers["srac.cache_misses"] = srac_misses(stack.engine) - misses_before
        return _result(
            statistics.median(rates),
            total / wall,
            latency,
            total,
            wall,
            peak,
            rss_after[shape.min_work - 1] - rss_after[0],
            total + open_outcomes.attempted,
            open_outcomes.failed,
            layers,
        )

    report = _passes(shape, lambda: _Stack(stream, frozenset(), False), measure, trace)
    report["inputs"] = _inputs("session-churn", shape, stream)
    return report


def _inputs(name: str, shape: Shape, stream: Stream) -> dict:
    spec = stream.spec
    return {
        "workload": name,
        "sessions": spec.sessions,
        "users": spec.users,
        "servers": spec.servers,
        "stream_requests": spec.requests,
        "zipf_s": spec.zipf_s,
        "count_bound": spec.count_bound,
        "primed_every": shape.primed_every,
        "open_rate_rps": shape.open_rate,
        "open_requests": shape.open_requests,
        "open_burst": shape.burst,
        "min_work": shape.min_work,
        "why": shape.why,
    }
