"""EXP-SCALE — the columnar session store at coalition scale.

A coalition fleet holds *far* more live sessions than it has in-flight
requests: hundreds of servers, millions of authenticated mobile
objects, a Zipf-skewed hot set producing most of the traffic.  The
columnar session store (:mod:`repro.rbac.session_store`) is built for
exactly that population — per-shard struct-of-arrays monitor/tracker
columns instead of a Python object per session — and this benchmark
measures what that buys:

* **bit-identity first** — before anything is timed, the same skewed
  stream is decided through the batched service over columnar engines
  and over classic object-backed engines (counters re-seeded so whole
  ``Decision`` objects compare equal): decisions, provenance, per-shard
  audit order and tracker timelines must match exactly, with zero
  vector-sweep fallbacks on the columnar side (object-backed engines
  have no sweep: their batches take the scalar loop and count no
  fallbacks).  The bulk loader
  (:meth:`~repro.rbac.engine.AccessControlEngine.open_sessions`) is
  verified against scalar ``authenticate``+``activate_role`` the same
  way.
* **resident scale** — ``open_sessions`` bulk-loads the full
  population (1M+ sessions in the full run) under ``tracemalloc``;
  the marginal bytes/session (and the store's own column accounting)
  gate the ≤ 200 B/session budget.
* **throughput at scale** — the diurnal Zipf stream is driven through
  the micro-batched :class:`~repro.service.DecisionService`; the same
  small-session workload PR-6 benchmarks (64 hot sessions) is then run
  store-on (columnar sweep) vs store-off (scalar loop), and the store
  must stay within 0.9x.

Run:  python benchmarks/bench_scale.py [--smoke]
Emits benchmarks/artifacts/BENCH_scale.json.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import pathlib
import time
import tracemalloc

import numpy as np

import repro.rbac.engine as rbac_engine
import repro.rbac.model as rbac_model
from repro.service import DecisionService, ShardedEngine
from repro.traces.trace import AccessKey
from repro.workloads.scale import (
    ScaleSpec,
    ScaleWorkload,
    build_policy,
    build_workload,
)

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent / "artifacts" / "BENCH_scale.json"
)

#: Service knobs shared by every driven phase (the PR-6 batched shape).
SHARDS = 16
WORKERS = 4
MAX_BATCH = 256
MAX_WAIT_S = 0.002
QUEUE_DEPTH = 1 << 17
SUBMIT_CHUNK = 8192

#: Store-overhead budget per resident session (ISSUE acceptance).
BYTES_PER_SESSION_BUDGET = 200.0


def _reset_counters() -> None:
    """Restart the process-global subject/session counters so
    independently built stacks assign identical ids and whole
    ``Decision`` objects compare equal."""
    rbac_model._subject_counter = itertools.count(1)
    rbac_engine._session_counter = itertools.count(1)


def _norm(decision):
    """Erase the only id that legitimately differs across stacks built
    in different session orders (the bulk loader opens shard-by-shard)."""
    return dataclasses.replace(decision, subject_id="")


def _service(engine: ShardedEngine) -> DecisionService:
    return DecisionService(
        engine,
        workers=WORKERS,
        queue_depth=QUEUE_DEPTH,
        max_batch=MAX_BATCH,
        max_wait_s=MAX_WAIT_S,
    )


def _shard_ids(engine: ShardedEngine, workload: ScaleWorkload) -> np.ndarray:
    """``shard_ids[i]`` = shard owning session ``i`` (route by name,
    exactly as ``authenticate``/``open_sessions`` do)."""
    cache: dict[str, int] = {}
    index = engine.shard_index
    return np.fromiter(
        (
            cache[n] if n in cache else cache.setdefault(n, index(n))
            for n in workload.user_names
        ),
        dtype=np.int64,
        count=len(workload.user_names),
    )


def _rows_in_workload_order(
    shard_ids: np.ndarray, rows_by_shard: dict[int, np.ndarray]
) -> np.ndarray:
    """Invert the bulk loader's per-shard grouping: ``row_of[i]`` is
    the store row of workload session ``i`` (the loader preserves
    arrival order within each shard)."""
    row_of = np.empty(len(shard_ids), dtype=np.int64)
    for shard, rows in rows_by_shard.items():
        row_of[shard_ids == shard] = rows
    return row_of


def _drive(
    service: DecisionService,
    sessions: list,
    workload: ScaleWorkload,
) -> tuple[list, float]:
    """Submit the whole stream in chunks; returns (decisions, wall)."""
    times = workload.times.tolist()
    targets = workload.session_index.tolist()
    accesses = workload.accesses
    futures = []
    start = time.perf_counter()
    for offset in range(0, len(times), SUBMIT_CHUNK):
        end = min(offset + SUBMIT_CHUNK, len(times))
        futures.extend(
            service.submit_many(
                [
                    (sessions[targets[k]], accesses[k], times[k])
                    for k in range(offset, end)
                ]
            )
        )
    if not service.drain(timeout=600.0):
        raise AssertionError("scale stream failed to drain in time")
    wall = time.perf_counter() - start
    return [f.result() for f in futures], wall


# -- bit-identity -----------------------------------------------------------


def _build_stack(
    spec: ScaleSpec,
    workload: ScaleWorkload,
    use_store: bool,
    bulk: bool,
):
    """One full service stack over the verification workload; returns
    (engine, sessions-in-workload-order)."""
    _reset_counters()
    engine = ShardedEngine(
        build_policy(spec), shards=8, use_session_store=use_store
    )
    if bulk:
        shard_ids = _shard_ids(engine, workload)
        rows = engine.open_sessions(workload.user_names, 0.0, roles=("agent",))
        row_of = _rows_in_workload_order(shard_ids, rows)
        sessions = [
            engine.session_at(int(shard_ids[i]), int(row_of[i]))
            for i in range(spec.sessions)
        ]
    else:
        sessions = []
        for name in workload.user_names:
            session = engine.authenticate(name, 0.0)
            engine.activate_role(session, "agent", 0.0)
            sessions.append(session)
    # A third of the population starts past the counting bound: their
    # exec requests deny spatially, so the differential stream carries
    # real denials (and a populated observation arena) from request 0.
    hot = AccessKey.of("exec", "rsw", "s0")
    for k, session in enumerate(sessions):
        if k % 3 == 1:
            for _ in range(spec.count_bound + 1):
                engine.observe(session, hot)
    engine.prewarm(workload.alphabet)
    return engine, sessions


def _run_verification_stack(
    spec: ScaleSpec, workload: ScaleWorkload, use_store: bool, bulk: bool
):
    engine, sessions = _build_stack(spec, workload, use_store, bulk)
    with _service(engine) as service:
        decisions, _ = _drive(service, sessions, workload)
        stats = service.service_stats()
    audit = [list(shard.engine.audit) for shard in engine._shards]
    timelines = {}
    for k in range(0, spec.sessions, 17):
        for key, tracker in sessions[k].trackers.items():
            timelines[(k, key)] = (
                tracker.now,
                tracker.valid_timeline(),
                tracker.active_timeline(),
            )
    return decisions, audit, stats, timelines


def verify_bit_identity(spec: ScaleSpec) -> dict:
    """Columnar vs object-backed engines must be indistinguishable on
    the skewed stream — decisions (full provenance), per-shard audit
    order, tracker timelines — and the bulk loader must match scalar
    session establishment.  Returns comparison counts for the report."""
    workload = build_workload(spec)
    store = _run_verification_stack(spec, workload, use_store=True, bulk=False)
    plain = _run_verification_stack(spec, workload, use_store=False, bulk=False)
    bulk = _run_verification_stack(spec, workload, use_store=True, bulk=True)

    if store[0] != plain[0]:
        for a, b in zip(store[0], plain[0]):
            if a != b:
                raise AssertionError(
                    f"columnar decision diverges from object-backed:"
                    f"\n{a}\nvs\n{b}"
                )
        raise AssertionError("columnar decision stream diverges")
    if store[1] != plain[1]:
        raise AssertionError("per-shard audit order diverges under the store")
    if store[3] != plain[3]:
        raise AssertionError("tracker timelines diverge under the store")
    if [_norm(d) for d in bulk[0]] != [_norm(d) for d in store[0]]:
        raise AssertionError("bulk-opened sessions decide differently")

    store_stats, plain_stats = store[2], plain[2]
    if store_stats.vector_fallbacks != plain_stats.vector_fallbacks:
        raise AssertionError(
            f"store-attributable vector fallbacks: "
            f"{store_stats.vector_fallbacks} columnar vs "
            f"{plain_stats.vector_fallbacks} object-backed"
        )
    if store_stats.vector_fallbacks != 0:
        raise AssertionError(
            f"verification stream fell back {store_stats.vector_fallbacks}x"
        )
    if store_stats.vector_decisions == 0:
        raise AssertionError("verification stream never hit the vector sweep")
    granted = sum(d.granted for d in store[0])
    if granted == 0 or granted == len(store[0]):
        raise AssertionError(
            f"degenerate verification stream ({granted} grants "
            f"of {len(store[0])})"
        )
    return {
        "decisions_compared": len(store[0]),
        "granted": granted,
        "denied": len(store[0]) - granted,
        "timelines_compared": len(store[3]),
        "vector_decisions": store_stats.vector_decisions,
        "vector_fallbacks": store_stats.vector_fallbacks,
    }


# -- resident scale ---------------------------------------------------------


def build_population(spec: ScaleSpec, workload: ScaleWorkload):
    """Bulk-load the full session population under tracemalloc.
    Returns (engine, shard_ids, row_of, build report)."""
    _reset_counters()
    engine = ShardedEngine(
        build_policy(spec),
        shards=SHARDS,
        use_session_store=True,
        record_timelines=False,
    )
    shard_ids = _shard_ids(engine, workload)
    counts = np.bincount(shard_ids, minlength=SHARDS)
    for shard in engine._shards:
        shard.engine._store.reserve(int(counts[shard.index]))
    gc.collect()
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    start = time.perf_counter()
    rows_by_shard = engine.open_sessions(
        workload.user_names, 0.0, roles=("agent",)
    )
    open_wall = time.perf_counter() - start
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The returned row-index arrays are loader *output*, not store
    # state — exclude them from the per-session overhead.
    rows_bytes = sum(rows.nbytes for rows in rows_by_shard.values())
    traced_marginal = (current - base - rows_bytes) / spec.sessions
    store_bytes = sum(
        shard.engine._store.nbytes() for shard in engine._shards
    )
    row_of = _rows_in_workload_order(shard_ids, rows_by_shard)
    report = {
        "sessions": spec.sessions,
        "resident": engine.resident_sessions(),
        "open_wall_s": open_wall,
        "open_rate": spec.sessions / open_wall,
        "tracemalloc_bytes_per_session": traced_marginal,
        "store_bytes_per_session": store_bytes / spec.sessions,
        "bytes_per_session": max(
            traced_marginal, store_bytes / spec.sessions
        ),
    }
    return engine, shard_ids, row_of, report


def drive_population(
    engine: ShardedEngine,
    shard_ids: np.ndarray,
    row_of: np.ndarray,
    workload: ScaleWorkload,
) -> dict:
    """Drive the Zipf/diurnal stream against the resident population
    through the batched service; only touched sessions get handles."""
    touched = np.unique(workload.session_index)
    handles: dict[int, object] = {
        int(i): engine.session_at(int(shard_ids[i]), int(row_of[i]))
        for i in touched
    }
    sessions = _HandleList(handles)
    engine.prewarm(workload.alphabet)
    with _service(engine) as service:
        decisions, wall = _drive(service, sessions, workload)
        stats = service.service_stats()
    if stats.errors:
        raise AssertionError(f"scale drive reported {stats.errors} errors")
    granted = sum(d.granted for d in decisions)
    return {
        "requests": len(decisions),
        "touched_sessions": int(len(touched)),
        "wall_s": wall,
        "throughput": len(decisions) / wall,
        "granted": granted,
        "denied": len(decisions) - granted,
        "mean_latency_ms": stats.mean_latency_s * 1e3,
        "mean_batch_size": stats.mean_batch_size,
        "vector_decisions": stats.vector_decisions,
        "vector_fallbacks": stats.vector_fallbacks,
        "resident_after": engine.resident_sessions(),
    }


class _HandleList:
    """Index-compatible view over the sparse handle dict (the drive
    loop subscripts ``sessions[target]``; only touched targets exist)."""

    __slots__ = ("_handles",)

    def __init__(self, handles: dict[int, object]):
        self._handles = handles

    def __getitem__(self, index: int):
        return self._handles[index]


# -- small-session reference ------------------------------------------------


def small_session_rate(spec: ScaleSpec, use_store: bool, repeats: int) -> float:
    """The PR-6 small-session batched-service shape (a few dozen hot
    sessions, table-eligible constraints) store-on vs store-off —
    whatever the store costs on tiny populations shows up here."""
    workload = build_workload(spec)
    _reset_counters()
    engine = ShardedEngine(
        build_policy(spec), shards=SHARDS, use_session_store=use_store
    )
    sessions = []
    for name in workload.user_names:
        session = engine.authenticate(name, 0.0)
        engine.activate_role(session, "agent", 0.0)
        sessions.append(session)
    engine.prewarm(workload.alphabet)
    best = 0.0
    with _service(engine) as service:
        # Warm pass (monitor init, caches) off the clock, then repeat
        # the stream at later instants (trackers need monotone time).
        warm = dataclasses.replace(workload)
        _drive(service, sessions, warm)
        service.reset_stats()
        horizon = float(workload.times[-1]) + 1.0
        for epoch in range(repeats):
            shifted = dataclasses.replace(
                workload, times=workload.times + (epoch + 1) * horizon
            )
            _, wall = _drive(service, sessions, shifted)
            best = max(best, len(workload.times) / wall)
        stats = service.service_stats()
    if stats.errors:
        raise AssertionError(
            f"small-session reference reported {stats.errors} errors"
        )
    return best


# -- top level --------------------------------------------------------------


def measure(
    spec: ScaleSpec, verify_spec: ScaleSpec, ref_spec: ScaleSpec,
    repeats: int = 3,
) -> dict:
    report: dict = {
        "spec": dataclasses.asdict(spec),
        "verify": verify_bit_identity(verify_spec),
    }
    # Expiry-crossing differential: the stream outlives the finite
    # validity duration (4 simulated days), so temporal denials — and
    # decisions near the expiry instant — are compared too.
    expiry_spec = dataclasses.replace(verify_spec, days=6.0, seed=verify_spec.seed + 1)
    report["verify_expiry"] = verify_bit_identity(expiry_spec)

    workload = build_workload(spec)
    engine, shard_ids, row_of, build = build_population(spec, workload)
    report["build"] = build
    report["drive"] = drive_population(engine, shard_ids, row_of, workload)
    del engine, shard_ids, row_of, workload
    gc.collect()

    store_rate = small_session_rate(ref_spec, use_store=True, repeats=repeats)
    plain_rate = small_session_rate(ref_spec, use_store=False, repeats=repeats)
    report["small_session"] = {
        "requests": ref_spec.requests,
        "sessions": ref_spec.sessions,
        "store_rate": store_rate,
        "object_rate": plain_rate,
        "ratio": store_rate / plain_rate,
    }
    return report


def print_report(report: dict) -> None:
    spec = report["spec"]
    verify = report["verify"]
    print(
        f"verification: {verify['decisions_compared']} decisions "
        f"bit-identical (columnar vs object-backed vs bulk-opened), "
        f"{verify['granted']} grants / {verify['denied']} denials, "
        f"{verify['timelines_compared']} tracker timelines, "
        f"{verify['vector_fallbacks']} fallbacks"
    )
    expiry = report["verify_expiry"]
    print(
        f"expiry-crossing pass: {expiry['decisions_compared']} decisions, "
        f"{expiry['denied']} denials"
    )
    build = report["build"]
    print(
        f"\nresident scale: {build['resident']:,} sessions over "
        f"{spec['servers']} servers, opened at "
        f"{build['open_rate']:,.0f} sessions/s"
    )
    print(
        f"per-session store overhead: "
        f"{build['bytes_per_session']:.1f} B "
        f"(tracemalloc {build['tracemalloc_bytes_per_session']:.1f} B, "
        f"columns {build['store_bytes_per_session']:.1f} B; "
        f"budget {BYTES_PER_SESSION_BUDGET:.0f} B)"
    )
    drive = report["drive"]
    print(
        f"\ndriven stream: {drive['requests']:,} requests over "
        f"{drive['touched_sessions']:,} touched sessions -> "
        f"{drive['throughput']:,.0f} req/s "
        f"(mean batch {drive['mean_batch_size']:.1f}, "
        f"vector {drive['vector_decisions']} / "
        f"fallback {drive['vector_fallbacks']})"
    )
    small = report["small_session"]
    print(
        f"\nsmall-session reference ({small['sessions']} sessions): "
        f"columnar {small['store_rate']:,.0f} req/s vs object-backed "
        f"{small['object_rate']:,.0f} req/s -> {small['ratio']:.2f}x"
    )


def check_acceptance(report: dict, smoke: bool = False) -> None:
    """The ISSUE gates.  Smoke (CI) keeps the memory budget hard but
    relaxes throughput floors for noisy shared runners."""
    for phase in ("verify", "verify_expiry"):
        verify = report[phase]
        assert verify["vector_fallbacks"] == 0, verify
        assert verify["granted"] > 0 and verify["denied"] > 0, verify
    build = report["build"]
    assert build["resident"] == build["sessions"], build
    assert build["bytes_per_session"] <= BYTES_PER_SESSION_BUDGET, (
        f"store overhead {build['bytes_per_session']:.1f} B/session "
        f"exceeds the {BYTES_PER_SESSION_BUDGET:.0f} B budget"
    )
    drive = report["drive"]
    assert drive["vector_fallbacks"] == 0, drive
    assert drive["vector_decisions"] > 0, drive
    throughput_floor = 5_000.0 if smoke else 7_500.0
    assert drive["throughput"] >= throughput_floor, (
        f"scale throughput {drive['throughput']:.0f} req/s below the "
        f"{throughput_floor:.0f} req/s floor"
    )
    ratio_floor = 0.75 if smoke else 0.9
    assert report["small_session"]["ratio"] >= ratio_floor, (
        f"columnar small-session throughput ratio "
        f"{report['small_session']['ratio']:.2f} below {ratio_floor:g}x"
    )
    print("acceptance checks passed.")


def smoke_specs() -> tuple[ScaleSpec, ScaleSpec, ScaleSpec, int]:
    """(population, verification, reference, repeats) for the CI smoke."""
    spec = ScaleSpec(
        sessions=100_000, users=2_000, servers=50, requests=30_000
    )
    verify_spec = ScaleSpec(
        sessions=600, users=30, servers=8, requests=3_000, count_bound=3
    )
    ref_spec = ScaleSpec(
        sessions=64, users=8, servers=5, requests=8_000, zipf_s=0.8
    )
    return spec, verify_spec, ref_spec, 2


def full_specs() -> tuple[ScaleSpec, ScaleSpec, ScaleSpec, int]:
    """(population, verification, reference, repeats) for the full run."""
    spec = ScaleSpec()
    verify_spec = ScaleSpec(
        sessions=1_500, users=60, servers=12, requests=6_000, count_bound=3
    )
    ref_spec = ScaleSpec(
        sessions=64, users=8, servers=5, requests=40_000, zipf_s=0.8
    )
    return spec, verify_spec, ref_spec, 3


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: 100k sessions, conservative throughput floors",
    )
    args = parser.parse_args()
    specs = smoke_specs() if args.smoke else full_specs()
    spec, verify_spec, ref_spec, repeats = specs
    report = measure(spec, verify_spec, ref_spec, repeats=repeats)
    print_report(report)
    ARTIFACT.parent.mkdir(exist_ok=True)
    ARTIFACT.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {ARTIFACT}")
    check_acceptance(report, smoke=args.smoke)


if __name__ == "__main__":
    main()
