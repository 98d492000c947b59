"""Differential properties of the vectorized decision core.

The contract of :mod:`repro.rbac.vector_engine` is *bit-identity*: for
any eligible batch, the vector sweep must return exactly the decisions
the scalar loop returns — same grants, same reasons, same
:class:`~repro.obs.provenance.DecisionProvenance`, same audit order,
and the same validity-tracker end state (including the recorded
timelines).  The tests run the same workload through a vector-enabled
and a vector-disabled engine, or — for interleaved multi-session
batches — through one columnar sweep and through per-request scalar
``decide``, and compare.

Ineligible batches must *fall back*, not fail: the fallback paths are
driven both through configuration (owner scope, uncached SRAC,
explicit history, ``observe_granted``) and through forced
:class:`~repro.errors.AlphabetError` interning failures.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.strategies as strategies
from repro.errors import AlphabetError, ReproError
from repro.rbac.audit import AuditLog, Decision
from repro.rbac.engine import AccessControlEngine
from repro.rbac.model import Permission
from repro.rbac.policy import Policy
from repro.srac.compiled import TransitionTable, compile_table
from repro.srac.parser import parse_constraint
from repro.service.sharding import ShardedEngine
from repro.traces.trace import AccessKey

CHAIN_SRC = "exec r1 @ s1 >> exec r1 @ s2"
COUNT_SRC = "count(0, 3, [res = r1])"


def _norm(decision: Decision) -> Decision:
    """Session subject ids are globally unique; mask them out."""
    return dataclasses.replace(decision, subject_id="")


def _build_engines(permissions, durations, use_srac_caches=True):
    """One policy, two engines: vector path on vs off."""
    policy = Policy()
    policy.add_user("u")
    policy.add_role("r")
    for i, (constraint, duration) in enumerate(zip(permissions, durations)):
        kwargs = {} if duration is None else {"validity_duration": duration}
        policy.add_permission(
            Permission(
                f"p{i}",
                op="exec",
                resource="r1",
                spatial_constraint=constraint,
                **kwargs,
            )
        )
        policy.assign_permission("r", f"p{i}")
    policy.assign_user("u", "r")
    out = []
    for use_vector in (True, False):
        engine = AccessControlEngine(
            policy,
            use_srac_caches=use_srac_caches,
            use_vector_batches=use_vector,
        )
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        out.append((engine, session))
    return out


def _assert_equivalent(vec, sc):
    """Decisions, audit, counters and tracker timelines must agree."""
    (vec_engine, vec_session), (sc_engine, sc_session) = vec, sc
    assert [_norm(d) for d in vec_engine.audit] == [
        _norm(d) for d in sc_engine.audit
    ]
    assert vec_engine.audit.granted_count == sc_engine.audit.granted_count
    assert vec_engine.audit.denied_count == sc_engine.audit.denied_count
    assert set(vec_session.trackers) == set(sc_session.trackers)
    for key, sc_tracker in sc_session.trackers.items():
        vec_tracker = vec_session.trackers[key]
        assert vec_tracker.now == sc_tracker.now
        assert vec_tracker.state(sc_tracker.now) == sc_tracker.state(
            sc_tracker.now
        )
        assert vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
        assert vec_tracker.active_timeline() == sc_tracker.active_timeline()


class TestDifferentialProperty:
    """Random policies x random workloads: scalar == vector, bitwise."""

    @given(
        constraint=strategies.constraints(max_leaves=4),
        duration=st.one_of(st.none(), st.integers(1, 8).map(float)),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=20),
        t0=st.integers(0, 5).map(float),
        dt=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_policy_bit_identity(
        self, constraint, duration, batch, t0, dt
    ):
        vec, sc = _build_engines([constraint], [duration])
        got = vec[0].decide_batch(vec[1], batch, t=t0, dt=dt)
        want = sc[0].decide_batch(sc[1], batch, t=t0, dt=dt)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        _assert_equivalent(vec, sc)

    @given(
        c1=strategies.constraints(max_leaves=3),
        c2=strategies.constraints(max_leaves=3),
        batch=st.lists(strategies.access_keys(), min_size=1, max_size=12),
        dt=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_multi_candidate_bit_identity(self, c1, c2, batch, dt):
        """Several (role, permission) candidates per access: the
        first-grant short-circuit and the failing-candidate provenance
        must match the scalar walk exactly."""
        vec, sc = _build_engines([c1, c2], [3.0, None])
        got = vec[0].decide_batch(vec[1], batch, t=1.0, dt=dt)
        want = sc[0].decide_batch(sc[1], batch, t=1.0, dt=dt)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        _assert_equivalent(vec, sc)

    def test_vector_path_actually_taken(self):
        vec, sc = _build_engines([parse_constraint(COUNT_SRC)], [None])
        batch = [AccessKey("exec", "r1", "s1")] * 10
        got = vec[0].decide_batch(vec[1], batch, t=1.0, dt=0.5)
        want = sc[0].decide_batch(sc[1], batch, t=1.0, dt=0.5)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        stats = vec[0].cache_stats()
        assert stats.vector_decisions == 10
        assert stats.vector_fallbacks == 0
        assert sc[0].cache_stats().vector_decisions == 0


class TestTemporalBoundaries:
    def test_decision_exactly_at_expiry_instant(self):
        """``t >= expiry`` denies: the breakpoint arrays use
        ``side="right"``, which must agree at the boundary itself."""
        duration = 4.0
        vec, sc = _build_engines([None], [duration])
        # Role activation at 0.0 -> expiry at exactly 4.0.  The batch
        # instants 0, 2, 4, 6, 8 include the boundary itself.
        batch = [AccessKey("exec", "r1", "s1")] * 5
        got = vec[0].decide_batch(vec[1], batch, t=0.0, dt=2.0)
        want = sc[0].decide_batch(sc[1], batch, t=0.0, dt=2.0)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert [d.granted for d in got] == [True, True, False, False, False]
        _assert_equivalent(vec, sc)

    def test_expiry_switch_recorded_at_same_instant(self):
        """The committed tracker advance must emit the validity-expired
        timeline switch at the same instant the scalar path records."""
        vec, sc = _build_engines([None], [2.0])
        batch = [AccessKey("exec", "r1", "s1")] * 8
        vec[0].decide_batch(vec[1], batch, t=0.5, dt=0.5)
        sc[0].decide_batch(sc[1], batch, t=0.5, dt=0.5)
        _assert_equivalent(vec, sc)
        (tracker,) = vec[1].trackers.values()
        assert 2.0 in tracker.valid_timeline().switches


class TestFallbacks:
    def _grant_batch(self):
        return [AccessKey("exec", "r1", "s1")] * 6

    def test_owner_scope_falls_back(self):
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission("p", op="exec", resource="r1",
                       spatial_constraint=parse_constraint(COUNT_SRC))
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        engine = AccessControlEngine(policy, coordination_scope="owner")
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        decisions = engine.decide_batch(session, self._grant_batch(), t=1.0)
        assert all(d.granted for d in decisions[:3])
        stats = engine.cache_stats()
        assert stats.vector_fallbacks == 6
        assert stats.vector_decisions == 0

    def test_uncached_srac_falls_back_identically(self):
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines(
            [constraint], [None], use_srac_caches=False
        )
        got = vec[0].decide_batch(vec[1], self._grant_batch(), t=1.0, dt=1.0)
        want = sc[0].decide_batch(sc[1], self._grant_batch(), t=1.0, dt=1.0)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert vec[0].cache_stats().vector_fallbacks == 6

    def test_explicit_history_and_observe_granted_fall_back(self):
        constraint = parse_constraint(COUNT_SRC)
        for kwargs in (
            {"history": ()},
            {"observe_granted": True},
        ):
            vec, sc = _build_engines([constraint], [None])
            got = vec[0].decide_batch(
                vec[1], self._grant_batch(), t=1.0, dt=1.0, **kwargs
            )
            want = sc[0].decide_batch(
                sc[1], self._grant_batch(), t=1.0, dt=1.0, **kwargs
            )
            assert [_norm(d) for d in got] == [_norm(d) for d in want]
            assert vec[0].cache_stats().vector_fallbacks == 6
            _assert_equivalent(vec, sc)

    def test_alphabet_error_falls_back_not_raises(self, monkeypatch):
        """A forced interning failure mid-prepare must degrade to the
        scalar loop, not surface (prepare leaves no session state)."""
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines([constraint], [None])

        def boom(self, access):
            raise AlphabetError(f"access {access} outside table alphabet")

        monkeypatch.setattr(TransitionTable, "intern", boom)
        got = vec[0].decide_batch(vec[1], self._grant_batch(), t=1.0, dt=1.0)
        monkeypatch.undo()
        want = sc[0].decide_batch(sc[1], self._grant_batch(), t=1.0, dt=1.0)
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert vec[0].cache_stats().vector_fallbacks == 6
        _assert_equivalent(vec, sc)

    def test_stale_time_falls_back(self):
        """A batch starting behind an existing tracker's clock cannot be
        swept (tracker queries must stay monotone) — and the scalar
        loop's behaviour, whatever it is, is reproduced."""
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines([constraint], [5.0])
        for engine, session in (vec, sc):
            engine.decide_batch(session, self._grant_batch()[:1], t=4.0)
        outcomes = []
        for engine, session in (vec, sc):
            try:
                result = engine.decide_batch(
                    session, self._grant_batch()[:2], t=1.0, dt=0.5
                )
                outcomes.append([_norm(d) for d in result])
            except ReproError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1]
        assert vec[0].cache_stats().vector_fallbacks == 2


class TestAlphabetInterning:
    def test_intern_raises_typed_error(self):
        constraint = parse_constraint(CHAIN_SRC)
        universe = (
            AccessKey("exec", "r1", "s1"),
            AccessKey("exec", "r1", "s2"),
        )
        table = compile_table(constraint, universe, cache=False)
        assert table is not None
        foreign = AccessKey("write", "r9", "s9")
        with pytest.raises(AlphabetError) as err:
            table.intern(foreign)
        assert isinstance(err.value, ReproError)
        assert not isinstance(err.value, KeyError)
        assert "r9" in str(err.value)

    def test_intern_many_raises_typed_error(self):
        constraint = parse_constraint(CHAIN_SRC)
        universe = (
            AccessKey("exec", "r1", "s1"),
            AccessKey("exec", "r1", "s2"),
        )
        table = compile_table(constraint, universe, cache=False)
        with pytest.raises(AlphabetError):
            table.intern_many(
                [AccessKey("exec", "r1", "s1"), AccessKey("read", "r2", "s3")]
            )

    def test_step_ids_matches_monitor_steps(self):
        constraint = parse_constraint(COUNT_SRC)
        universe = tuple(
            AccessKey("exec", "r1", s) for s in ("s1", "s2", "s3")
        )
        table = compile_table(constraint, universe, cache=False)
        state = table.initial
        for access in universe * 3:
            state = int(table.trans[state, table.intern(access)])
        assert 0 <= state < table.trans.shape[0]
        # Counting 9 accesses against count(0, 3) leaves a dead state.
        assert not bool(table.live[state])


class TestBatchMany:
    def _sessions(self, engine, k):
        out = []
        for _ in range(k):
            session = engine.authenticate("u", 0.0)
            engine.activate_role(session, "r", 0.0)
            out.append(session)
        return out

    def test_interleaved_stream_matches_scalar(self):
        constraint = parse_constraint(COUNT_SRC)
        vec, sc = _build_engines([constraint], [6.0])
        vec_sessions = [vec[1]] + self._sessions(vec[0], 2)
        sc_sessions = [sc[1]] + self._sessions(sc[0], 2)
        accesses = [
            AccessKey("exec", "r1", f"s{1 + i % 3}") for i in range(24)
        ]
        got = vec[0].decide_batch_many(
            [(vec_sessions[i % 3], accesses[i]) for i in range(24)],
            t=1.0,
            dt=0.25,
        )
        want = sc[0].decide_batch_many(
            [(sc_sessions[i % 3], accesses[i]) for i in range(24)],
            t=1.0,
            dt=0.25,
        )
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert vec[0].cache_stats().vector_decisions == 24
        assert [_norm(d) for d in vec[0].audit] == [
            _norm(d) for d in sc[0].audit
        ]
        for v, s in zip(vec_sessions, sc_sessions):
            for key, sc_tracker in s.trackers.items():
                vec_tracker = v.trackers[key]
                assert vec_tracker.now == sc_tracker.now
                assert (
                    vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
                )

    def test_sharded_sweep_matches_plain_engine(self):
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission(
                "p",
                op="exec",
                resource="r1",
                spatial_constraint=parse_constraint(COUNT_SRC),
                validity_duration=8.0,
            )
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        sharded = ShardedEngine(policy, shards=3)
        plain = AccessControlEngine(policy)
        sh_sessions, pl_sessions = [], []
        for i in range(4):
            s = sharded.authenticate("u", 0.0, shard_key=f"agent-{i}")
            sharded.activate_role(s, "r", 0.0)
            sh_sessions.append(s)
            p = plain.authenticate("u", 0.0)
            plain.activate_role(p, "r", 0.0)
            pl_sessions.append(p)
        requests = [
            (i % 4, AccessKey("exec", "r1", f"s{1 + i % 3}"))
            for i in range(20)
        ]
        got = sharded.decide_batch_many(
            [(sh_sessions[j], a) for j, a in requests], t=2.0, dt=0.5
        )
        want = plain.decide_batch_many(
            [(pl_sessions[j], a) for j, a in requests], t=2.0, dt=0.5
        )
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert sum(s["decisions"] for s in sharded.shard_stats()) == 20

    def test_explicit_times_length_mismatch(self):
        constraint = parse_constraint(COUNT_SRC)
        vec, _sc = _build_engines([constraint], [None])
        with pytest.raises(ReproError):
            vec[0].decide_batch_many(
                [(vec[1], AccessKey("exec", "r1", "s1"))],
                t=0.0,
                times=[1.0, 2.0],
            )


class TestAuditRecordMany:
    def test_counters_match_scalar_recording(self):
        grant = Decision("s", AccessKey("e", "r", "s"), True, 1.0)
        deny = Decision("s", AccessKey("e", "r", "s"), False, 2.0)
        log = AuditLog()
        log.record_many([grant, deny, grant])
        assert (log.granted_count, log.denied_count) == (2, 1)
        log.record_many([deny, deny], granted=0)
        assert (log.granted_count, log.denied_count) == (2, 3)
        assert len(log) == 5
        assert list(log)[-1] is deny

    def test_empty_batch(self):
        log = AuditLog()
        log.record_many([])
        assert len(log) == 0
        assert log.grant_rate() == 0.0


# -- cross-session sweep -----------------------------------------------------

#: Session profiles of the cross-session suite: active roles (``None``
#: activates nothing) and activation instant.
PROFILES = (
    (("ra",), 0.0),
    (("rb",), 0.0),
    (("ra", "rb"), 0.5),
    (("rc",), 0.0),
    ((), 0.0),
    (("ra", "rc"), 1.0),
)


def _cross_session_engine(c0, c1, d0, use_vector):
    """Three roles over four permissions:

    * ``p0`` (``exec r1``, constraint ``c0``, duration ``d0``) and
      ``p1`` (any op on ``r1``, constraint ``c1``) on role ``ra``;
    * ``p1`` and ``p2`` (``exec`` anything at ``s1``) share one
      classifier tracker key, budget 3.0;
    * ``p3`` (``read r2``, budget 2.0) is granted to ``rb`` only
      after every session has activated its roles, so its tracker
      cells stay unallocated until a request examines them.
    """
    from repro.temporal.aggregation import PermissionClass, PermissionClassifier

    policy = Policy()
    policy.add_user("u")
    for role in ("ra", "rb", "rc"):
        policy.add_role(role)
        policy.assign_user("u", role)
    policy.add_permission(
        Permission(
            "p0", op="exec", resource="r1", spatial_constraint=c0,
            validity_duration=d0,
        )
    )
    policy.add_permission(
        Permission("p1", resource="r1", spatial_constraint=c1)
    )
    policy.add_permission(Permission("p2", op="exec", server="s1"))
    policy.add_permission(
        Permission("p3", op="read", resource="r2", validity_duration=2.0)
    )
    for role, permission in (
        ("ra", "p0"), ("ra", "p1"), ("rb", "p1"), ("rb", "p2"), ("rc", "p2"),
    ):
        policy.assign_permission(role, permission)
    classifier = PermissionClassifier(
        [PermissionClass("shared", frozenset({"p1", "p2"}), duration=3.0)]
    )
    engine = AccessControlEngine(
        policy, classifier=classifier, use_vector_batches=use_vector
    )
    sessions = []
    for roles, at in PROFILES:
        session = engine.authenticate("u", 0.0)
        for role in roles:
            engine.activate_role(session, role, at)
        sessions.append(session)
    policy.assign_permission("rb", "p3")
    return engine, sessions


class TestCrossSessionSweep:
    """One columnar sweep over an interleaved multi-session batch must
    equal per-request scalar ``decide``, bit for bit."""

    @given(
        c0=strategies.constraints(max_leaves=3),
        c1=strategies.constraints(max_leaves=3),
        d0=st.sampled_from([2.0, 4.0, float("inf")]),
        observed=st.lists(
            st.tuples(st.integers(0, len(PROFILES) - 1), strategies.access_keys()),
            max_size=8,
        ),
        warm=st.lists(st.integers(0, len(PROFILES) - 1), max_size=3),
        batch=st.lists(
            st.tuples(
                st.integers(0, len(PROFILES) - 1),
                strategies.access_keys(),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_interleaved_batch_matches_scalar_decide(
        self, c0, c1, d0, observed, warm, batch
    ):
        vec, vec_sessions = _cross_session_engine(c0, c1, d0, True)
        sc, sc_sessions = _cross_session_engine(c0, c1, d0, False)
        for engine, sessions in ((vec, vec_sessions), (sc, sc_sessions)):
            # History observed before any decision leaves its monitor
            # cells uninitialised; a scalar warm-up initialises some.
            for k, access in observed:
                engine.observe(sessions[k], access)
            for k in warm:
                engine.decide(
                    sessions[k], AccessKey("exec", "r1", "s2"), 1.0,
                    history=None,
                )
        t = 1.0
        times = []
        for _k, _access, step in batch:
            t += step
            times.append(t)
        got = vec.decide_batch_many(
            [(vec_sessions[k], access) for k, access, _ in batch],
            t=0.0,
            times=times,
        )
        want = [
            sc.decide(sc_sessions[k], access, when, history=None)
            for (k, access, _), when in zip(batch, times)
        ]
        assert vec.cache_stats().vector_decisions == len(batch)
        assert vec.cache_stats().vector_fallbacks == 0
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert [d.subject_id for d in got] == [
            vec_sessions[k].subject.subject_id for k, _, _ in batch
        ]
        assert [_norm(d) for d in vec.audit] == [_norm(d) for d in sc.audit]
        assert vec.cache_stats().live_hits == sc.cache_stats().live_hits
        for v, s in zip(vec_sessions, sc_sessions):
            assert v.last_seen == s.last_seen
            assert set(v.trackers) == set(s.trackers)
            for key, sc_tracker in s.trackers.items():
                vec_tracker = v.trackers[key]
                assert vec_tracker.now == sc_tracker.now
                assert (
                    vec_tracker.valid_timeline() == sc_tracker.valid_timeline()
                )
                assert (
                    vec_tracker.state(sc_tracker.now)
                    == sc_tracker.state(sc_tracker.now)
                )

    def test_expiry_crossed_and_hit_exactly_in_one_batch(self):
        """Sessions whose budgets end at 2.0 and 3.0, probed before, at
        and after each instant, in one interleaved batch."""
        vec, vec_sessions = _cross_session_engine(None, None, 2.0, True)
        sc, sc_sessions = _cross_session_engine(None, None, 2.0, False)
        exec_r1 = AccessKey("exec", "r1", "s1")
        read_r2 = AccessKey("read", "r2", "s2")
        requests = [
            (k, access, t)
            for t in (1.5, 2.0, 2.5, 3.0, 3.5)
            for k in (0, 1, 2, 5)
            for access in (exec_r1, read_r2)
        ]
        got = vec.decide_batch_many(
            [(vec_sessions[k], a) for k, a, _ in requests],
            t=0.0,
            times=[t for _, _, t in requests],
        )
        want = [
            sc.decide(sc_sessions[k], a, t, history=None)
            for k, a, t in requests
        ]
        assert vec.cache_stats().vector_fallbacks == 0
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert any(d.granted for d in got)
        assert any(
            d.provenance.kind == "temporal" for d in got if not d.granted
        )
        for v, s in zip(vec_sessions, sc_sessions):
            for key, sc_tracker in s.trackers.items():
                assert (
                    v.trackers[key].valid_timeline()
                    == sc_tracker.valid_timeline()
                )

    def test_uninitialised_cells_fold_history(self):
        """Histories observed before any decision leave monitor cells
        uninitialised; the sweep must fold them, not assume the
        initial state (sessions 0 and 2 are past ``count(0, 3)``)."""
        count = parse_constraint(COUNT_SRC)
        vec, vec_sessions = _cross_session_engine(count, count, 9.0, True)
        sc, sc_sessions = _cross_session_engine(count, count, 9.0, False)
        exec_r1 = AccessKey("exec", "r1", "s2")
        for engine, sessions in ((vec, vec_sessions), (sc, sc_sessions)):
            for k, times in ((0, 4), (1, 4), (2, 3), (5, 1)):
                for _ in range(times):
                    engine.observe(sessions[k], exec_r1)
        requests = [(k, exec_r1) for k in (0, 1, 2, 3, 5, 0, 2)]
        got = vec.decide_batch_many(
            [(vec_sessions[k], a) for k, a in requests], t=1.0, dt=0.5
        )
        want = [
            sc.decide(sc_sessions[k], a, 1.0 + 0.5 * i, history=None)
            for i, (k, a) in enumerate(requests)
        ]
        assert vec.cache_stats().vector_fallbacks == 0
        assert [_norm(d) for d in got] == [_norm(d) for d in want]
        assert [d.provenance.kind for d in got] == [
            "spatial", "spatial", "spatial", "no-candidate", "granted",
            "spatial", "spatial",
        ]

    def test_object_backed_engine_takes_scalar_loop(self):
        """Without a session store there is no sweep: batches are
        decided by the scalar loop and no fallback is counted."""
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(Permission("p", op="exec", resource="r1"))
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        engine = AccessControlEngine(policy, use_session_store=False)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        decisions = engine.decide_batch(
            session, [AccessKey("exec", "r1", "s1")] * 4, t=1.0, dt=1.0
        )
        assert all(d.granted for d in decisions)
        stats = engine.cache_stats()
        assert (stats.vector_decisions, stats.vector_fallbacks) == (0, 0)


class TestNonFiniteTimes:
    """NaN and ±inf instants fail closed with a typed error and leave
    every session untouched."""

    @staticmethod
    def _policy():
        policy = Policy()
        policy.add_user("u")
        policy.add_role("r")
        policy.add_permission(
            Permission("p", op="exec", resource="r1", validity_duration=5.0)
        )
        policy.assign_user("u", "r")
        policy.assign_permission("r", "p")
        return policy

    def _engine(self, use_store):
        engine = AccessControlEngine(
            self._policy(), use_session_store=use_store
        )
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        return engine, session

    @pytest.mark.parametrize("use_store", [True, False])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_engine_entry_points_reject(self, use_store, bad):
        from repro.errors import TemporalError

        engine, session = self._engine(use_store)
        access = AccessKey("exec", "r1", "s1")
        with pytest.raises(TemporalError):
            engine.decide(session, access, bad, history=None)
        with pytest.raises(TemporalError):
            engine.decide_batch(session, [access] * 3, t=bad)
        with pytest.raises(TemporalError):
            engine.decide_batch(session, [access] * 3, t=1.0, dt=bad)
        with pytest.raises(TemporalError):
            engine.decide_batch_many([(session, access)] * 2, t=bad)
        with pytest.raises(TemporalError):
            engine.decide_batch_many(
                [(session, access)] * 2, t=0.0, times=[1.0, bad]
            )
        # Nothing was decided or advanced: the session still decides.
        assert len(engine.audit) == 0
        assert session.last_seen == 0.0
        assert engine.decide(session, access, 1.0, history=None).granted
        assert not engine.decide(session, access, 6.0, history=None).granted

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_service_fails_only_the_offending_future(self, bad):
        from repro.errors import TemporalError
        from repro.service import DecisionService

        engine = ShardedEngine(self._policy(), shards=2)
        session = engine.authenticate("u", 0.0)
        engine.activate_role(session, "r", 0.0)
        access = AccessKey("exec", "r1", "s1")
        with DecisionService(engine, workers=1, max_batch=16) as service:
            single = service.submit(session, access, bad)
            futures = service.submit_many(
                [(session, access, 1.0), (session, access, bad),
                 (session, access, 2.0)]
            )
            assert service.drain(timeout=30.0)
            later = service.decide(session, access, 3.0)
            stats = service.service_stats()
        assert isinstance(single.exception(), TemporalError)
        assert isinstance(futures[1].exception(), TemporalError)
        assert futures[0].result().granted and futures[2].result().granted
        assert later.granted
        assert stats.rejected == 2
        assert stats.errors == 0
        assert stats.completed == stats.submitted == 3
