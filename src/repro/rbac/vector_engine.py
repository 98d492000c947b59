"""The cross-session columnar decision sweep.

The scalar :meth:`~repro.rbac.engine.AccessControlEngine.decide` is
O(1) warm but pays interpreted-Python cost per decision: a candidate
walk, a monitor step, a validity-tracker query and a fresh provenance
record each time.  A micro-batch of requests — from one session or
interleaved across thousands — is instead decided as a **join over the
state columns** of the engine's
:class:`~repro.rbac.session_store.SessionStore` (the relational view of
coalition state), in three steps:

**Plans.**  Everything a decision needs that depends only on the
requester's interned role-set id and the access is memoised per engine
as a *plan*: the candidate ``(role, permission)`` pairs, their tracker
keys and durations, the constraint of each, and — per (constraint,
access) — the spatial verdict vector ``live[trans[:, symbol]]`` over
monitor state ids, appended once to one flat per-engine array.  Plans
are dropped when the policy version moves or
:meth:`~repro.rbac.engine.AccessControlEngine.invalidate_caches` runs,
exactly like the candidate cache.

**Gathers.**  Per batch: one fancy-index gather of the role-set,
history-length and liveness columns over the batch's rows; one gather
of each touched monitor-state column (state ids, so the spatial
verdict of every (request, candidate) cell is one gather into the flat
verdict array); one gather of each touched tracker key's
``alloc/active/consumed0/expiry/now/dur`` cells, from which the Eq. 4.1
state codes follow in closed form (``t >= expiry`` is the scalar
expiry test, evaluated on the same floats).  The observed history is
frozen for the whole batch and each tracker's state function has at
most one breakpoint, so these verdicts are exactly the scalar loop's.
The first-grant choice is an ``argmax`` over the candidate axis.

**Commit.**  Per tracker key, the last examined instant of each row
(requests of one row are in nondecreasing time) advances the columns
in bulk — creating untouched cells as the scalar loop would — and an
expiry event is recorded only for the rows that cross their expiry
(:meth:`~repro.rbac.session_store.SessionStore.tracker_advance_block`).
``last_seen`` moves by ``np.maximum.at``; live-set hit and decision
counters tick; the decisions enter the audit log in arrival order.

The only per-request Python work is the plan lookup and the
``Decision`` clone: prototypes are memoised per outcome (plan, granting
candidate or verdict column, history length, epoch, and for denials
the coordination footprint) and cloned with the request's subject id
and instant.

Batches the sweep cannot decide exactly return ``None`` *before* any
session-visible state is touched, and the caller replays them through
the scalar loop, which reproduces the scalar behaviour *including*
exceptions.  Those are: owner coordination scope, disabled SRAC caches,
sessions that are not live handles of the engine's store, non-finite
instants, instants before a session's start or a tracker's clock,
per-session instants that run backwards, monitor products over the
table budgets, accesses outside a compiled alphabet
(:class:`~repro.errors.AlphabetError`) and non-positive validity
durations.  Engines without a session store (``use_session_store=False``)
or with ``use_vector_batches=False`` have no sweep at all.

Decisions and their :class:`~repro.obs.provenance.DecisionProvenance`
are **bit-identical** to the scalar engine's (property-tested in
``tests/test_vector_engine.py``); the only observable difference is
that swept decisions do not emit sampled ``engine.decide`` tracing
spans (``engine.decisions`` metrics still count them).
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import AlphabetError
from repro.obs import OBS
from repro.obs.provenance import CandidateProvenance, DecisionProvenance
from repro.rbac.audit import Decision
from repro.rbac.engine import _constraint_source
from repro.rbac.session_store import _Arena
from repro.srac.monitors import compile_constraint
from repro.temporal.validity import (
    CODE_ACTIVE_INVALID,
    CODE_INACTIVE,
    CODE_VALID,
    STATE_CODES,
)
from repro.traces.trace import AccessKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rbac.engine import AccessControlEngine, Session

__all__ = ["sweep", "sweep_interleaved"]

_NO_CANDIDATE_REASON = "no active role provides a matching permission"

#: Plan-id sentinels in the lookup tables.
_UNKNOWN = -2
_INELIGIBLE = -1

#: Decision prototypes kept per engine before the memo starts over
#: (outcomes are keyed by history length too, which is unbounded).
_PROTO_MEMO_LIMIT = 4096

#: A denial's verdict column packs (spatial_ok, state code) per
#: candidate into one base-6 digit; up to this many candidates the
#: column is exact in float64 (6**20 < 2**53).  Plans with more take
#: the scalar loop.
_DIGIT = 6
_MAX_CANDIDATES = 20

#: Bit layout of a grant's outcome key: plan id, candidate slot + 1,
#: history length (see :meth:`_Plans.prototype`).
_HIST_BITS = 31
_HIST_MASK = (1 << _HIST_BITS) - 1
_SLOT_MASK = (1 << 9) - 1
_PID_SHIFT = _HIST_BITS + 9

_STORE_OF = operator.attrgetter("_store")
_ROW_OF = operator.attrgetter("_row")
_SUBJECT_ID_OF = operator.attrgetter("subject.subject_id")


class _Plan:
    """What deciding ``access`` for one role set needs, minus the
    session state: the candidates and their provenance texts."""

    __slots__ = ("access", "candidates", "ctexts")

    def __init__(self, access: AccessKey, candidates, ctexts):
        self.access = access
        self.candidates = candidates
        self.ctexts = ctexts


class _Plans:
    """The per-engine plan memo.

    A plan is addressed by (interned role-set id, access).  Its
    candidates occupy a row of ``desc`` (descriptor ids, ``-1``
    padded); each descriptor carries a tracker-key id, a constraint id
    (``-1``: unconstrained) and the offset of its spatial verdict
    vector in ``flat`` (offset 0 is a constant ``True`` cell, the
    verdict of an unconstrained permission at state id 0).
    """

    def __init__(self, version: int):
        self.version = version
        #: role-set id -> access -> plan id (or a sentinel).
        self.index: dict[int, dict[AccessKey, int]] = {}
        self.plans: list[_Plan] = []
        self.k = _Arena(np.int32)
        self.desc = np.full((16, 1), -1, dtype=np.int32)
        self.d_tkey = _Arena(np.int32)
        self.d_cons = _Arena(np.int32)
        self.d_off = _Arena(np.int64)
        self.tkeys: list[str] = []
        self.tkey_ids: dict[str, int] = {}
        self.tkey_durations: list[float] = []
        self.constraints: list = []
        self.cons_ids: dict = {}
        self.cons_sizes: list[tuple[int, ...]] = []
        self.flat = _Arena(np.bool_)
        self.flat.extend([True])
        self.flat_offsets: dict = {}
        self.protos: dict = {}
        self.epoch = None
        #: Plans built so far (each build is one candidate resolution).
        self.built = 0

    def lookup(self, engine, store, rsid: int, access: AccessKey) -> int:
        """Plan id for (role set, access), building the plan on a miss."""
        table = self.index.get(rsid)
        if table is None:
            table = self.index[rsid] = {}
        pid = table.get(access)
        if pid is None:
            pid = table[access] = self._build(
                engine, store._role_sets[rsid], access
            )
        return pid

    def _build(self, engine, roles: frozenset, access: AccessKey) -> int:
        self.built += 1
        candidates = engine._candidates_of(roles, access)
        if len(candidates) > _MAX_CANDIDATES:
            return _INELIGIBLE
        descs: list[tuple[int, int, int]] = []
        ctexts: list[str | None] = []
        for _role, permission in candidates:
            key = engine._tracker_key(permission)
            tkid = self.tkey_ids.get(key)
            if tkid is None:
                duration = engine._duration_for(permission)
                if not duration > 0:
                    # The scalar loop raises creating such a tracker.
                    return _INELIGIBLE
                tkid = self.tkey_ids[key] = len(self.tkeys)
                self.tkeys.append(key)
                self.tkey_durations.append(duration)
            constraint = permission.spatial_constraint
            if constraint is None:
                descs.append((tkid, -1, 0))
                ctexts.append(None)
                continue
            _compiled, universe, live = engine._extension_entry(
                constraint, access
            )
            if live is None:
                return _INELIGIBLE
            table = engine._extension_table(constraint, access, universe)
            if table is None:
                return _INELIGIBLE
            try:
                symbol = table.intern(access)
            except AlphabetError:
                return _INELIGIBLE
            cid = self.cons_ids.get(constraint)
            if cid is None:
                cid = self.cons_ids[constraint] = len(self.constraints)
                self.constraints.append(constraint)
                self.cons_sizes.append(table.sizes)
            elif self.cons_sizes[cid] != table.sizes:  # pragma: no cover
                return _INELIGIBLE
            offset = self.flat_offsets.get((constraint, access))
            if offset is None:
                offset = self.flat_offsets[(constraint, access)] = (
                    self.flat.extend(table.live[table.trans[:, symbol]])
                )
            descs.append((tkid, cid, offset))
            ctexts.append(_constraint_source(constraint))
        pid = len(self.plans)
        self.plans.append(_Plan(access, candidates, tuple(ctexts)))
        self.k.extend([len(descs)])
        rows, width = self.desc.shape
        if pid >= rows or len(descs) > width:
            grown = np.full(
                (max(rows, 2 * (pid + 1)), max(width, len(descs))),
                -1,
                dtype=np.int32,
            )
            grown[:rows, :width] = self.desc
            self.desc = grown
        if descs:
            first = self.d_tkey.extend([d[0] for d in descs])
            self.d_cons.extend([d[1] for d in descs])
            self.d_off.extend([d[2] for d in descs])
            self.desc[pid, : len(descs)] = np.arange(
                first, first + len(descs), dtype=np.int32
            )
        return pid

    # -- decision prototypes ----------------------------------------------

    def prototypes(self, epoch) -> dict:
        """The prototype memo for decisions stamped with ``epoch``
        (keys: see :meth:`prototype`)."""
        if epoch != self.epoch or len(self.protos) >= _PROTO_MEMO_LIMIT:
            self.protos = {}
            self.epoch = epoch
        return self.protos

    def prototype(self, key) -> dict:
        """Build and memoise the ``Decision`` fields of one outcome.

        An ``int`` key packs (plan, candidate slot + 1, history length)
        — a grant by that candidate, or for a plan without candidates
        (slot ``-1``) the no-candidate denial.  A tuple key is a denial
        ``(plan, verdict column, history length, foreign servers)``;
        the column packs (spatial_ok, state code) per candidate into
        base-6 digits, candidate 0 least significant.
        """
        if isinstance(key, int):
            pid = key >> _PID_SHIFT
            slot = (key >> _HIST_BITS & _SLOT_MASK) - 1
            decision = self._settled(pid, slot, key & _HIST_MASK)
        else:
            decision = self._denial(*key)
        proto = self.protos[key] = decision.__dict__
        return proto

    def _settled(self, pid: int, slot: int, history_len: int) -> Decision:
        plan = self.plans[pid]
        if slot < 0:
            return Decision(
                subject_id="",
                access=plan.access,
                granted=False,
                time=0.0,
                reason=_NO_CANDIDATE_REASON,
                provenance=DecisionProvenance(
                    kind="no-candidate",
                    history_mode="incremental",
                    history_len=history_len,
                    epoch=self.epoch,
                ),
            )
        role, permission = plan.candidates[slot]
        record = CandidateProvenance(
            role=role.name,
            permission=permission.name,
            constraint=plan.ctexts[slot],
            spatial_ok=True,
            temporal_ok=True,
            temporal_state=STATE_CODES[CODE_VALID].value,
        )
        return Decision(
            subject_id="",
            access=plan.access,
            granted=True,
            time=0.0,
            role=role.name,
            permission=permission.name,
            spatial_ok=True,
            temporal_ok=True,
            provenance=DecisionProvenance(
                kind="granted",
                candidates=(record,),
                history_mode="incremental",
                history_len=history_len,
                epoch=self.epoch,
            ),
        )

    def _denial(self, pid: int, column: int, history_len: int, foreign) -> Decision:
        plan = self.plans[pid]
        records = []
        last_reason = ""
        for j, (role, permission) in enumerate(plan.candidates):
            digit = column // _DIGIT**j % _DIGIT
            spatial_ok = digit >= 3
            code = digit % 3
            records.append(
                CandidateProvenance(
                    role=role.name,
                    permission=permission.name,
                    constraint=plan.ctexts[j],
                    spatial_ok=spatial_ok,
                    temporal_ok=code == CODE_VALID,
                    temporal_state=STATE_CODES[code].value,
                )
            )
            if not spatial_ok:
                last_reason = (
                    f"spatial constraint of {permission.name!r} "
                    f"cannot be satisfied"
                )
            else:
                last_reason = (
                    f"permission {permission.name!r} is "
                    f"{STATE_CODES[code].value}"
                )
        failing = records[-1]
        return Decision(
            subject_id="",
            access=plan.access,
            granted=False,
            time=0.0,
            role=failing.role,
            permission=failing.permission,
            spatial_ok=failing.spatial_ok,
            temporal_ok=failing.temporal_ok,
            reason=last_reason,
            provenance=DecisionProvenance(
                kind="spatial" if not failing.spatial_ok else "temporal",
                candidates=tuple(records),
                history_mode="incremental",
                history_len=history_len,
                foreign_servers=foreign,
                epoch=self.epoch,
            ),
        )


def _foreign_servers(store, row: int, server: str) -> tuple[str, ...]:
    """Distinct servers of the row's observed history other than
    ``server`` — the denial's coordination footprint, read straight
    from the observation arena."""
    servers = {access.server for access in store.observed_list(row)}
    servers.discard(server)
    return tuple(sorted(servers))


def sweep(
    engine: "AccessControlEngine",
    sessions: "Session | Sequence[Session]",
    accesses: Sequence[AccessKey],
    times: Sequence[float],
) -> list[Decision] | None:
    """Decide an arrival-ordered request stream in one columnar sweep.

    ``sessions`` is either one session (a single-session batch) or one
    session per request; ``accesses`` are ``AccessKey`` instances and
    ``times`` the decision instants, every request in incremental mode
    (no explicit history, no program, no ``observe_granted``).
    Returns the decisions — already recorded in the audit log in
    arrival order — or ``None`` when the batch must take the scalar
    loop; in that case no session state has changed and, on engines
    that have a sweep, one vector fallback is counted per request.
    """
    n = len(accesses)
    if n == 0:
        return []
    store = engine._store
    if store is None or not engine.use_vector_batches:
        return None
    decisions = _sweep(engine, store, sessions, accesses, times, n)
    if decisions is None:
        engine._vector_fallbacks += n
    return decisions


def sweep_interleaved(
    engine: "AccessControlEngine",
    entries: Sequence[tuple["Session", AccessKey, float]],
) -> list[Decision] | None:
    """:func:`sweep` over ``(session, access, t)`` triples — the
    :class:`~repro.service.service.DecisionService` drain loop's shape
    (it filters out explicit-history, program and ``observe_granted``
    requests before calling)."""
    if not entries:
        return []
    sessions, accesses, times = zip(*entries)
    return sweep(engine, list(sessions), accesses, times)


def _sweep(engine, store, sessions, accesses, times, n: int):
    if engine.coordination_scope != "subject" or not engine.use_srac_caches:
        return None
    single = not isinstance(sessions, list)
    if single:
        if getattr(sessions, "_store", None) is not store:
            return None
        row = sessions._row
        rows = np.full(n, row, dtype=np.int64)
        subject_ids = itertools.repeat(sessions.subject.subject_id, n)
    else:
        try:
            if set(map(_STORE_OF, sessions)) != {store}:
                return None
        except AttributeError:  # object-backed sessions
            return None
        rows = np.fromiter(map(_ROW_OF, sessions), dtype=np.int64, count=n)
        subject_ids = list(map(_SUBJECT_ID_OF, sessions))
    t_arr = np.asarray(times, dtype=np.float64)
    if not (
        np.isfinite(t_arr).all()
        and store._alive.data[rows].all()
        and (t_arr >= store._start_time.data[rows]).all()
    ):
        return None
    # Requests grouped by row, arrival order kept within each row.
    # Tracker advances are per session: each session's instants must
    # be nondecreasing (the stream may interleave clocks freely).
    order = np.arange(n) if single else np.argsort(rows, kind="stable")
    r_sorted = rows[order]
    t_sorted = t_arr[order]
    if np.count_nonzero(
        (r_sorted[1:] == r_sorted[:-1]) & (t_sorted[1:] < t_sorted[:-1])
    ):
        return None

    # -- plans ---------------------------------------------------------
    plans = engine._plans
    if plans is None or plans.version != engine.policy.version:
        plans = engine._plans = _Plans(engine.policy.version)
    rsid_col = store._role_set_id.data
    if single:
        rsids = itertools.repeat(int(rsid_col[row]), n)
        get = plans.index.get(int(rsid_col[row]), {}).get
        pids = [get(a, _UNKNOWN) for a in accesses]
    else:
        rsids = rsid_col[rows].tolist()
        index = plans.index
        empty: dict = {}
        pids = [
            index.get(r, empty).get(a, _UNKNOWN) for r, a in zip(rsids, accesses)
        ]
    built = plans.built
    if _UNKNOWN in pids:
        for i, (pid, r) in enumerate(zip(pids, rsids)):
            if pid == _UNKNOWN:
                pids[i] = plans.lookup(engine, store, r, accesses[i])
    built = plans.built - built
    pid_arr = np.array(pids, dtype=np.int64)
    if np.count_nonzero(pid_arr < 0):
        return None

    # One *cell* per (request, candidate), requests in row-grouped
    # order and each request's candidates in slot order.
    k_req = plans.k.data[pid_arr]
    width = int(k_req.max())
    desc = plans.desc[pid_arr[order], :width].ravel()
    cells = np.flatnonzero(desc >= 0)
    cell_desc = desc[cells]
    cell_req = order[cells // width] if width else cells
    cell_slot = cells % width if width else cells
    cell_rows = rows[cell_req]
    cell_t = t_arr[cell_req]
    cell_tkey = plans.d_tkey.data[cell_desc]
    cell_cons = plans.d_cons.data[cell_desc]

    # -- temporal codes (read-only: every check precedes any write) ----
    codes = np.zeros(cells.size, dtype=np.uint8)  # CODE_INACTIVE
    tkids = np.flatnonzero(np.bincount(cell_tkey)).tolist()
    for kid in tkids:
        tc = store._trackers.get(plans.tkeys[kid])
        if tc is None:
            continue  # no row has this tracker yet: INACTIVE everywhere
        mine = cell_tkey == kid
        r = cell_rows[mine]
        t = cell_t[mine]
        alloc = tc.alloc.data[r] != 0
        if np.count_nonzero(alloc & (t < tc.now.data[r])):
            return None  # behind the tracker's clock: the scalar loop raises
        durations = np.asarray(tc.durations, dtype=np.float64)
        expired = (tc.consumed0.data[r] >= durations[tc.dur.data[r]]) | (
            t >= tc.expiry.data[r]
        )
        codes[mine] = np.where(
            alloc & (tc.active.data[r] != 0),
            np.where(expired, CODE_ACTIVE_INVALID, CODE_VALID),
            CODE_INACTIVE,
        )

    # -- spatial verdicts ---------------------------------------------
    state_ids = np.zeros(cells.size, dtype=np.int64)
    for cid in np.flatnonzero(np.bincount(cell_cons[cell_cons >= 0])).tolist():
        constraint = plans.constraints[cid]
        mine = cell_cons == cid
        r = cell_rows[mine]
        mc = store._monitors.get(constraint)
        if mc is not None and mc.sizes != plans.cons_sizes[cid]:
            return None  # pragma: no cover - radix disagreement
        states = mc.col.data[r] if mc is not None else np.full(r.size, -1)
        if np.count_nonzero(states < 0):
            mc = _init_monitors(store, constraint, np.unique(r[states < 0]))
            if mc is None or mc.sizes != plans.cons_sizes[cid]:
                return None  # pragma: no cover - astronomic products
            states = mc.col.data[r]
        state_ids[mine] = states
    spatial = plans.flat.data[plans.d_off.data[cell_desc] + state_ids]

    # -- first grant and examined candidates ---------------------------
    # A request's candidates are adjacent cells in slot order, so its
    # first passing cell is the first of its run among passing cells.
    passing = np.flatnonzero(spatial & (codes == CODE_VALID))
    passing_req = cell_req[passing]
    first = np.ones(passing.size, dtype=bool)
    first[1:] = passing_req[1:] != passing_req[:-1]
    slot = np.full(n, -1, dtype=np.int64)
    slot[passing_req[first]] = cell_slot[passing[first]]
    granted = slot >= 0
    cell_grant = slot[cell_req]
    examined = (cell_grant < 0) | (cell_slot <= cell_grant)

    # -- commit ----------------------------------------------------------
    for kid in tkids:
        # Cells are row-grouped with nondecreasing instants per row, so
        # a row's last examined cell carries its latest instant.
        mine = np.flatnonzero(examined & (cell_tkey == kid))
        if mine.size:
            r = cell_rows[mine]
            last = np.ones(mine.size, dtype=bool)
            last[:-1] = r[1:] != r[:-1]
            store.tracker_advance_block(
                plans.tkeys[kid],
                r[last],
                cell_t[mine[last]],
                plans.tkey_durations[kid],
            )
    np.maximum.at(store._last_seen.data, rows, t_arr)
    engine._live_hits += int(np.count_nonzero(examined & (cell_cons >= 0)))
    engine._candidate_hits += n - built
    engine._vector_decisions += n
    if OBS.enabled:
        # Metrics count every decision; the sampled per-decision spans
        # are a scalar-path feature (documented in the module docstring).
        engine._obs_decisions += n

    # -- decisions -------------------------------------------------------
    protos = plans.prototypes(engine._current_epoch())
    history = store._obs_len.data[rows].astype(np.int64)
    outcomes = (
        (pid_arr << _PID_SHIFT) | ((slot + 1) << _HIST_BITS) | history
    ).tolist()
    denied = np.flatnonzero(~granted & (k_req > 0))
    if denied.size:
        # Per request, (spatial_ok, state code) of each candidate as
        # one base-6 digit; exact in float64 up to _MAX_CANDIDATES.
        columns = np.bincount(
            cell_req,
            weights=(spatial * 3 + codes) * float(_DIGIT) ** cell_slot,
            minlength=n,
        ).astype(np.int64)
        footprints: dict = {}
        for i, pid, column, hist, r in zip(
            denied.tolist(),
            pid_arr[denied].tolist(),
            columns[denied].tolist(),
            history[denied].tolist(),
            rows[denied].tolist(),
        ):
            server = plans.plans[pid].access.server
            foreign = footprints.get((r, server))
            if foreign is None:
                foreign = footprints[(r, server)] = _foreign_servers(
                    store, r, server
                )
            outcomes[i] = (pid, column, hist, foreign)

    chosen = list(map(protos.get, outcomes))
    if None in chosen:
        for i, proto in enumerate(chosen):
            if proto is None:
                key = outcomes[i]
                chosen[i] = protos.get(key) or plans.prototype(key)
    new = Decision.__new__
    out: list[Decision] = []
    append = out.append
    for proto, t, subject_id in zip(chosen, times, subject_ids):
        d = new(Decision)
        dd = d.__dict__
        dd.update(proto)
        dd["time"] = t
        dd["subject_id"] = subject_id
        append(d)
    engine.audit.record_many(out, granted=int(np.count_nonzero(granted)))
    return out


def _init_monitors(store, constraint, rows: np.ndarray):
    """Initialise the monitor cells of ``rows`` for ``constraint`` by
    folding each row's observed history, as the scalar loop's first
    incremental check would: rows with an empty history get the
    initial state id in one column write.  Returns the column (None
    for products too wide to encode)."""
    compiled = compile_constraint(constraint)
    mc = store._monitors.get(constraint)
    if mc is None:
        first = int(rows[0])
        store.init_monitor(first, constraint, compiled)
        mc = store._monitors.get(constraint)
        if mc is None:  # pragma: no cover - astronomic products
            return None
        rows = rows[1:]
    fresh = store._obs_len.data[rows] == 0
    mc.col.data[rows[fresh]] = mc.encode(compiled.initial())
    for r in rows[~fresh].tolist():
        store.init_monitor(r, constraint, compiled)
    return mc
