"""``coalition-roaming``: fleets of Section 6 auditor naplets.

Each unit of work is one audit round on a fresh coalition: a random
module DAG (:func:`repro.workloads.digraphs.random_module_graph`) spread
over the coalition's servers, some modules tampered, and a fleet of
auditor naplets roaming it under one long-lived
:class:`~repro.agent.security.NapletSecurityManager` and
:class:`~repro.rbac.engine.AccessControlEngine` (the coalition's
security service outlives any single audit), with batched proof
propagation.  Half of each fleet audits under a validity budget shorter
than the audit, so its late accesses are denied (Eq. 4.1).

This is the only workload through the agent interpreter, the security
manager, execution proofs and scalar ``AccessControlEngine.decide``;
it never reaches the vector sweep.

Correctness: every naplet's verified-module map, denial count and
audited order must equal what :func:`repro.apps.integrity.run_audit`
— the library's own single-auditor path, on its own engine — reports
for the same graph, tamper set, budget and order; the gate also checks
``order_constraint_ok`` on the fleet's own histories.
"""

from __future__ import annotations

import dataclasses
import math
import statistics

import numpy as np

from repro.agent.naplet import LifecycleHooks, Naplet
from repro.agent.principal import Authority
from repro.agent.scheduler import Simulation
from repro.agent.security import NapletSecurityManager
from repro.apps.integrity import (
    auditor_program,
    build_coalition,
    run_audit,
    verification_constraint,
)
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.service.batching import ProofBatch
from repro.srac.reachability import clear_caches
from repro.srac.trace_check import trace_satisfies
from repro.workloads.digraphs import random_module_graph

from harness import (
    SEGMENT_S,
    GcWatch,
    Latency,
    Tracer,
    check,
    host_slowness,
    peak_rss_mb,
    srac_misses,
    perf,
    rss_mb,
    timed_setups,
)

MODULES = 16
SERVERS = 4
EDGE_PROBABILITY = 0.2
FLEET = 8
#: Distinct fleets generated from the seed; the timed phase cycles
#: through them, each time on a fresh coalition and simulation.
POOL = 16
OWNERS = 64
#: Validity budget of the timed auditors: shorter than any full audit
#: of ``MODULES`` accesses, so their tails are denied.
TIMED_BUDGET = 10.0
MIN_UNITS = 300
SETUP_REPEATS = 9
WHY = (
    "8 auditors per 16-module coalition: agent interpreter, security "
    "manager, proofs and scalar decide, never the vector sweep or store"
)


@dataclasses.dataclass(frozen=True)
class Auditor:
    owner: str
    timed: bool
    order: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class Fleet:
    graph: object
    tamper: frozenset[str]
    auditors: tuple[Auditor, ...]


def generate_fleets(seed: int) -> list[Fleet]:
    """The seeded fleet pool: graphs, tamper sets and auditors."""
    rng = np.random.default_rng(seed)
    fleets = []
    for _ in range(POOL):
        graph = random_module_graph(
            MODULES, SERVERS, EDGE_PROBABILITY, seed=int(rng.integers(2**31))
        )
        names = graph.names()
        tamper = frozenset(
            names[i] for i in rng.choice(len(names), size=2, replace=False)
        )
        orders = (graph.locality_order(), graph.topological_order())
        auditors = tuple(
            Auditor(
                owner=f"owner{int(rng.integers(OWNERS))}",
                timed=bool(k % 2),
                order=orders[int(rng.integers(2))],
            )
            for k in range(FLEET)
        )
        fleets.append(Fleet(graph, tamper, auditors))
    return fleets


def _expected(fleet: Fleet, auditor: Auditor):
    """What the library's single-auditor path reports for this auditor."""
    report = run_audit(
        fleet.graph,
        tamper=fleet.tamper,
        deadline=TIMED_BUDGET if auditor.timed else math.inf,
        order=auditor.order,
    )
    return dict(report.verified), report.denied_accesses, report.audited


class Service:
    """The coalition's long-lived security service (what set-up builds)."""

    def __init__(self) -> None:
        policy = Policy()
        policy.add_role("auditor")
        policy.add_role("auditor-timed")
        policy.add_permission(
            Permission("verify", op="exec", validity_duration=math.inf)
        )
        policy.add_permission(
            Permission("verify-timed", op="exec", validity_duration=TIMED_BUDGET)
        )
        policy.assign_permission("auditor", "verify")
        policy.assign_permission("auditor-timed", "verify-timed")
        self.authority = Authority()
        self.certificates = {}
        for i in range(OWNERS):
            owner = f"owner{i}"
            policy.add_user(owner)
            policy.assign_user(owner, "auditor")
            policy.assign_user(owner, "auditor-timed")
            self.certificates[owner] = self.authority.register(owner)
        self.engine = AccessControlEngine(policy)
        self.engine.prewarm()
        self.manager = NapletSecurityManager(self.engine, authority=self.authority)


class Unit:
    """One audit round: results and per-naplet completion latencies."""

    def __init__(self, service: Service, fleet: Fleet, tag: str):
        coalition = build_coalition(fleet.graph, tamper=fleet.tamper)
        self.sim = Simulation(
            coalition,
            security=service.manager,
            on_denied="skip",
            proof_propagation="batched",
        )
        self.finished_at: list[float] = []
        hooks = LifecycleHooks(on_finish=lambda _n, _t: self.finished_at.append(perf()))
        self.naplets = []
        for k, auditor in enumerate(fleet.auditors):
            naplet = Naplet(
                auditor.owner,
                auditor_program(fleet.graph, order=auditor.order),
                certificate=service.certificates[auditor.owner],
                name=f"{tag}-{k}",
                hooks=hooks,
                roles=("auditor-timed" if auditor.timed else "auditor",),
            )
            first = fleet.graph.module(auditor.order[0]).server
            self.sim.add_naplet(naplet, first)
            self.naplets.append(naplet)

    def run(self) -> list[float]:
        start = perf()
        self.sim.run()
        return [t - start for t in self.finished_at]

    def outcomes(self, fleet: Fleet) -> list:
        expected = {m.name: m.digest() for m in fleet.graph.modules()}
        out = []
        for naplet in self.naplets:
            hashed = {access.resource: value for access, value in naplet.observations}
            verified = {}
            for name in fleet.graph.topological_order():
                verified[name] = hashed.get(name) == expected[name] and all(
                    verified[dep] for dep in fleet.graph.module(name).depends_on
                )
            audited = tuple(access.resource for access, _ in naplet.observations)
            out.append((verified, len(naplet.denials), audited))
        return out


def _gate(fleets: list[Fleet]) -> list[list]:
    """Reference outcomes for the whole pool, and a full check of one
    pass of the pool through the fleet path (incl. the order check)."""
    references = [[_expected(f, a) for a in f.auditors] for f in fleets]
    service = Service()
    for i, fleet in enumerate(fleets):
        unit = Unit(service, fleet, f"gate{i}")
        unit.run()
        _check_unit(unit, fleet, references[i], f"gate fleet {i}")
        constraint = verification_constraint(fleet.graph)
        for naplet, auditor in zip(unit.naplets, fleet.auditors):
            complete = len(naplet.observations) == len(fleet.graph)
            ok = trace_satisfies(
                naplet.history(), constraint, proofs=naplet.registry.proved
            )
            check(
                ok or not complete,
                f"gate fleet {i}: {naplet.naplet_id} broke the dependency order",
            )
            check(
                complete != auditor.timed,
                f"gate fleet {i}: {naplet.naplet_id} timed={auditor.timed} "
                f"but audited {len(naplet.observations)} of {len(fleet.graph)}",
            )
    return references


def _check_unit(unit: Unit, fleet: Fleet, reference: list, where: str) -> None:
    check(
        len(unit.finished_at) == len(fleet.auditors),
        f"{where}: {len(unit.finished_at)} of {len(fleet.auditors)} auditors finished",
    )
    for k, (got, want) in enumerate(zip(unit.outcomes(fleet), reference)):
        check(got == want, f"{where}: auditor {k} reported {got}, expected {want}")


def _decided(unit: Unit) -> int:
    return sum(len(n.observations) + len(n.denials) for n in unit.naplets)


def run(seed: int, seconds: float, trace: bool) -> dict:
    fleets = generate_fleets(seed)
    references = _gate(fleets)
    granted = sum(len(r[2]) for ref in references for r in ref)
    denied = sum(r[1] for ref in references for r in ref)
    check(granted and denied, f"degenerate pool: {granted} grants, {denied} denials")

    report = {"untraced": _pass(fleets, references, seconds, None)}
    if trace:
        tracer = Tracer()
        tracer.wrap(Simulation, "run", "agent.run")
        tracer.wrap(AccessControlEngine, "decide", "decide")
        tracer.wrap(AccessControlEngine, "prewarm", "prewarm")
        for method in ("enqueue", "flush", "flush_due"):
            tracer.wrap(ProofBatch, method, "proofs")
        try:
            report["traced"] = _pass(fleets, references, seconds, tracer)
        finally:
            tracer.restore()
        layers = report["traced"]["layers"]
        layers["trace.overhead"] = (
            report["traced"]["throughput_rps"] / report["untraced"]["throughput_rps"]
        )
        layers["trace.missing_entry_points"] = len(tracer.missing)
        report["missing"] = tracer.missing
    report["inputs"] = {
        "workload": "coalition-roaming",
        "modules": MODULES,
        "servers": SERVERS,
        "edge_probability": EDGE_PROBABILITY,
        "fleet": FLEET,
        "pool": POOL,
        "owners": OWNERS,
        "timed_budget": TIMED_BUDGET,
        "why": WHY,
    }
    return report


def _pass(fleets, references, seconds, tracer) -> dict:
    """Set-ups, then audit units back to back for ``seconds`` (and at
    least ``MIN_UNITS``).  Units are grouped into segments of about
    ``SEGMENT_S``, each followed by a host-speed probe: the rate is the
    median segment rate and every latency is restated with its
    segment's probe."""
    service, setup_s, measured = timed_setups(Service, SETUP_REPEATS, clear_caches)
    layers = {}
    if tracer is not None:
        layers["engine.prewarm_s"] = tracer.seconds["prewarm"] / SETUP_REPEATS
        tracer.reset()
    misses_before = srac_misses(service.engine)
    latencies: list[float] = []
    restated: list[float] = []
    rates: list[float] = []
    decided = migrations = flushes = delivered = units = 0
    rss_first = rss_mark = peak = wall = 0.0
    segment_start, segment_decided, segment_first = perf(), 0, 0
    with GcWatch() as gcw:
        while units < MIN_UNITS or wall < seconds:
            index = units % len(fleets)
            start = perf()
            unit = Unit(service, fleets[index], f"u{units}")
            latencies.extend(unit.run())
            _check_unit(unit, fleets[index], references[index], f"unit {units}")
            wall += perf() - start
            decided += _decided(unit)
            migrations += unit.sim.migrations
            stats = unit.sim.proof_batch.stats()
            flushes += stats["delivery_calls"]
            delivered += stats["delivered"]
            units += 1
            if units == 1:
                rss_first = rss_mb()
            if units == MIN_UNITS:
                rss_mark, peak = rss_mb(), peak_rss_mb()
            elapsed = perf() - segment_start
            if elapsed >= SEGMENT_S:
                slowness, _ = host_slowness()
                rates.append((decided - segment_decided) / elapsed * slowness)
                restated.extend(t / slowness for t in latencies[segment_first:])
                segment_start, segment_decided = perf(), decided
                segment_first = len(latencies)
    if segment_first < len(latencies):
        slowness, _ = host_slowness()
        restated.extend(t / slowness for t in latencies[segment_first:])
    if tracer is not None:
        seconds_by = tracer.seconds
        run_s = seconds_by["agent.run"]
        decide_s = seconds_by["decide"]
        proofs_s = seconds_by["proofs"]
        check(
            decide_s + proofs_s <= run_s <= wall,
            f"layer times do not nest: decide {decide_s:.3f}s + proofs "
            f"{proofs_s:.3f}s, run {run_s:.3f}s, wall {wall:.3f}s",
        )
        caches = service.engine.cache_stats()
        lookups = caches.candidate_hits + caches.candidate_misses
        layers.update(
            {
                "agent.run_s": run_s,
                "agent.self_s": run_s - decide_s - proofs_s,
                "agent.migrations": migrations,
                "agent.accesses": decided,
                "engine.decide.calls": tracer.calls["decide"],
                "engine.decide.s": decide_s,
                "engine.candidate_hit_ratio": (
                    caches.candidate_hits / lookups if lookups else 0.0
                ),
                "engine.vector_fallbacks": caches.vector_fallbacks,
                "proofs.flushes": flushes,
                "proofs.per_flush": delivered / flushes if flushes else 0.0,
                "proofs.flush_s": proofs_s,
                "srac.cache_misses": srac_misses(service.engine) - misses_before,
            }
        )
        layers.update({f"gc.{k}": v for k, v in gcw.summary().items()})
    latency = Latency.by_count(latencies, restated)
    return {
        "setup_s": setup_s,
        "setup_samples": measured,
        "throughput_rps": statistics.median(rates),
        "latency_p50_ms": latency.percentile_ms(50),
        "latency_p99_ms": latency.percentile_ms(99),
        "peak_rss_mb": peak,
        "rss_growth_mb": rss_mark - rss_first,
        "raw": {
            "setup_s": statistics.median(measured),
            "throughput_rps": decided / wall,
            "latency_p50_ms": latency.raw_ms(50),
            "latency_p99_ms": latency.raw_ms(99),
        },
        "closed_requests": decided,
        "closed_wall_s": wall,
        "units": units,
        "open_requests": len(latencies),
        "attempted": decided,
        "failed": 0,
        "layers": layers,
    }
