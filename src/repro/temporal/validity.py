"""Permission validity tracking (paper Section 4, Eq. 4.1).

Each permission carries a *validity duration* ``dur(perm)`` — the total
time it may spend in the *valid* state.  A permission is, for a given
mobile object, in one of three states:

* ``INACTIVE`` — not assigned to any active role of the subject;
* ``VALID`` — active and with validity budget remaining;
* ``ACTIVE_INVALID`` — active, but the accumulated valid time has
  reached ``dur(perm)`` (Eq. 4.1's integral condition fails).

Two base-time schemes choose where the integral's lower limit ``t_b``
sits (Section 4):

* :data:`Scheme.PER_SERVER` — ``t_b = t_i``, the arrival time at the
  *current* server: the budget is per-visit and resets on migration;
* :data:`Scheme.WHOLE_EXECUTION` — ``t_b = t_1``, the start of the
  object's life-cycle: one budget across all servers.

:class:`ValidityTracker` is the event-driven realisation: feed it
``activate`` / ``deactivate`` / ``migrate`` events in time order and
query the state at any time; it also exposes the exact expiry instant
and records the ``valid`` state function as a
:class:`~repro.temporal.timeline.BooleanTimeline` for audit and for
cross-checking against the declarative integral (tests do both).

Between two events the tracker's state function is **piecewise
constant with at most one breakpoint** (the expiry instant): for
instants ``u >= now`` the state is ``INACTIVE`` when not active,
``ACTIVE_INVALID`` when the budget is spent or ``u >= expiry``, and
``VALID`` otherwise.  Accrual is itself closed-form — ``consumed(t) =
consumed₀ + (t − anchor)`` against a precomputed expiry instant — so
the columnar sweep (:mod:`repro.rbac.vector_engine`), which evaluates
that closed form over the session store's tracker columns for a whole
batch, makes the *same* floating-point comparisons as the scalar
per-query path and agrees with it bit-for-bit, including exactly at
the expiry boundary.  :data:`STATE_CODES` are the small-integer state
encodings the sweep uses.
"""

from __future__ import annotations

import enum
import math

from repro.errors import TemporalError
from repro.temporal.timeline import BooleanTimeline, TimelineRecorder

__all__ = [
    "PermissionState",
    "Scheme",
    "ValidityTracker",
    "STATE_CODES",
    "CODE_INACTIVE",
    "CODE_ACTIVE_INVALID",
    "CODE_VALID",
    "require_finite_time",
]


class PermissionState(enum.Enum):
    """The three permission states of Section 4."""

    INACTIVE = "inactive"
    ACTIVE_INVALID = "active-but-invalid"
    VALID = "valid"


#: Small-integer encodings of :class:`PermissionState` for packed
#: (numpy) sweeps; ``STATE_CODES[code]`` recovers the enum member.
CODE_INACTIVE = 0
CODE_ACTIVE_INVALID = 1
CODE_VALID = 2
STATE_CODES = (
    PermissionState.INACTIVE,
    PermissionState.ACTIVE_INVALID,
    PermissionState.VALID,
)


def require_finite_time(t) -> None:
    """Reject a NaN, infinite or non-numeric decision instant with
    :class:`~repro.errors.TemporalError`.  Validity trackers compare
    instants with ``<``/``>=``, which NaN silently passes and an
    infinite instant would pin a tracker's clock beyond every later
    request, so such instants are refused before any state moves."""
    try:
        finite = math.isfinite(t)
    except TypeError:
        finite = False
    if not finite:
        raise TemporalError(f"decision time must be a finite number, got {t!r}")


class Scheme(enum.Enum):
    """Base-time schemes for the validity integral."""

    PER_SERVER = "per-server"  # t_b = arrival at current server
    WHOLE_EXECUTION = "whole-execution"  # t_b = start of execution


class ValidityTracker:
    """Event-driven tracker of one permission's validity for one
    mobile object.

    Parameters
    ----------
    duration:
        ``dur(perm)`` — the validity budget; ``math.inf`` makes the
        permission time-insensitive (the paper allows "even infinity").
    scheme:
        Which base time the budget is metered from.
    start_time:
        ``t_1``, the start of the object's execution (arrival at the
        first server).

    Internally the accrued budget is kept in *closed form*: while the
    permission is active and unexpired, ``consumed(t) = _consumed0 +
    (t - _anchor)`` and the expiry instant ``_expiry = _anchor +
    (duration - _consumed0)`` is precomputed at the last event.  Every
    query — scalar or vectorized — answers ``t >= _expiry``; there is
    no per-query accumulation, so query *order* cannot drift the
    floating-point state.
    """

    __slots__ = (
        "duration",
        "scheme",
        "_now",
        "_active",
        "_anchor",
        "_consumed0",
        "_expiry",
        "_valid_recorder",
        "_active_recorder",
    )

    def __init__(
        self,
        duration: float,
        scheme: Scheme = Scheme.WHOLE_EXECUTION,
        start_time: float = 0.0,
    ):
        if duration <= 0:
            raise TemporalError(f"validity duration must be positive, got {duration}")
        self.duration = float(duration)
        self.scheme = scheme
        self._now = float(start_time)
        self._active = False
        # Closed-form accrual state: consumed(t) = _consumed0 while
        # inactive (or expired); _consumed0 + (t - _anchor) while
        # actively accruing.  _expiry is +inf when no expiry is pending
        # (inactive, time-insensitive, or already expired).
        self._anchor = self._now
        self._consumed0 = 0.0
        self._expiry = math.inf
        self._valid_recorder = TimelineRecorder(initial=False)
        self._active_recorder = TimelineRecorder(initial=False)

    # -- internal clock ----------------------------------------------------

    def _pending_expiry(self) -> float:
        """The expiry instant assuming the permission stays active from
        the current accrual anchor; ``inf`` when it cannot expire."""
        if math.isinf(self.duration) or self._consumed0 >= self.duration:
            return math.inf
        return self._anchor + (self.duration - self._consumed0)

    def _consumed_at(self, t: float) -> float:
        """``∫ valid du`` accrued by time ``t`` (t >= last event)."""
        if not self._active or self._consumed0 >= self.duration:
            return self._consumed0
        if t >= self._expiry:
            return self.duration
        return self._consumed0 + (t - self._anchor)

    def _advance(self, t: float) -> None:
        if t < self._now:
            raise TemporalError(f"event at {t} is before current time {self._now}")
        if self._active and t >= self._expiry:
            # The budget ran out before t: emit the expiry switch at
            # the precomputed instant and consolidate.
            self._valid_recorder.set(self._expiry, False)
            self._consumed0 = self.duration
            self._anchor = self._expiry
            self._expiry = math.inf
        self._now = t

    def _consolidate(self, t: float) -> None:
        """Fold the accrual run into ``_consumed0`` at instant ``t``
        (called on events that stop or restart accrual)."""
        self._consumed0 = self._consumed_at(t)
        self._anchor = t

    # -- events ------------------------------------------------------------

    def activate(self, t: float) -> None:
        """The permission's role was activated for the subject at ``t``."""
        self._advance(t)
        if self._active:
            return
        self._active = True
        self._active_recorder.set(t, True)
        self._anchor = t
        if self._consumed0 < self.duration:
            self._valid_recorder.set(t, True)
        self._expiry = self._pending_expiry()

    def deactivate(self, t: float) -> None:
        """The role was deactivated (session ended) at ``t``."""
        self._advance(t)
        if not self._active:
            return
        self._consolidate(t)
        self._active = False
        self._expiry = math.inf
        self._active_recorder.set(t, False)
        self._valid_recorder.set(t, False)

    def migrate(self, t: float) -> None:
        """The mobile object arrived at a new server at ``t``.

        Under :data:`Scheme.PER_SERVER` the base time becomes ``t`` and
        the consumed budget resets; under
        :data:`Scheme.WHOLE_EXECUTION` migration is irrelevant to the
        budget."""
        self._advance(t)
        if self.scheme is Scheme.PER_SERVER:
            self._consumed0 = 0.0
            self._anchor = t
            if self._active:
                self._valid_recorder.set(t, True)
                self._expiry = self._pending_expiry()

    # -- queries ------------------------------------------------------------

    def state(self, t: float | None = None) -> PermissionState:
        """The permission state at ``t`` (default: the current time).
        Querying advances the internal clock."""
        if t is not None:
            self._advance(t)
        if not self._active:
            return PermissionState.INACTIVE
        if self._consumed0 >= self.duration:
            return PermissionState.ACTIVE_INVALID
        return PermissionState.VALID

    def is_valid(self, t: float | None = None) -> bool:
        """``valid(perm, t)`` as a boolean."""
        return self.state(t) is PermissionState.VALID

    def remaining_budget(self, t: float | None = None) -> float:
        """Validity time left before expiry (``inf`` for time-insensitive
        permissions)."""
        if t is not None:
            self._advance(t)
        if math.isinf(self.duration):
            return math.inf
        return max(0.0, self.duration - self._consumed_at(self._now))

    def expiry_time(self) -> float | None:
        """If the permission is currently valid, the instant its budget
        will be exhausted (assuming it stays active); ``None`` when
        inactive, already expired, or time-insensitive."""
        if not self._active or self._consumed0 >= self.duration:
            return None
        if math.isinf(self.duration):
            return None
        return self._expiry

    # -- audit ---------------------------------------------------------------

    def valid_timeline(self) -> BooleanTimeline:
        """The recorded ``valid(perm, ·)`` state function up to the
        current time."""
        return self._valid_recorder.freeze()

    def active_timeline(self) -> BooleanTimeline:
        """The recorded ``active(perm, ·)`` state function."""
        return self._active_recorder.freeze()

    @property
    def now(self) -> float:
        return self._now
