"""Primary-backup replication with view changes and incremental catch-up.

A bounded, crash-free rendition of Viewstamped-Replication-style
consensus for at most three replicas.  Replica ``v mod N`` is the master
of view ``v``.  Per-replica state is exactly the record the conformance
checker compares: status (Normal / ViewChange), the log of (view, op)
entries, viewNumber, commitNumber, downloadReplica (the peer a replica is
streaming missing log entries from; self means "not downloading"),
catchupPos (the last log position obtained by streaming) and phase2
(whether a quorum of votes for the current view's master has been seen).

Normal operation
    A client Request reaching the active master appends a log entry and
    broadcasts Prepare(view, pos, entry, commit).  A backup in the same
    view appends when the position is next, acknowledges with PrepareOk,
    and learns commit positions from Prepare/Commit piggybacks.  The
    master advances commitNumber on the first acknowledgement of a
    position (master + one backup is a majority for N <= 3) and
    broadcasts Commit.  Requests reaching a non-master are dropped.

View change
    A timeout is modeled as an externally injected StartViewChange to the
    replica itself.  On the first evidence of a higher view v a replica
    adopts it: status=ViewChange, viewNumber=v, downloadReplica=None,
    catchupPos=0, phase2=False, and it broadcasts StartViewChange(v) to
    the other replicas.  A peer's StartViewChange counts as a vote, and
    one peer vote plus the replica's own makes a majority (N <= 3), so
    phase2 flips and the replica sends DoViewChange(v, commit,
    lastEntryView, logLen) to the new master.  The new master, on its
    first DoViewChange, keeps whichever log is fresher by
    (commitNumber, lastEntryView, logLen): its own, or the sender's, in
    which case it truncates to its commitNumber and streams the missing
    entries one at a time with CatchupQuery/CatchupReply.  Once caught
    up it goes Normal and broadcasts StartView(v, logLen, commit);
    backups truncate to their own commitNumber and stream the remainder
    from the master the same way, acknowledging the tail with PrepareOk
    so it can be committed.

Delivery gating
    Each message kind has one handler, which opens with the kind's rule
    for when a delivery is a transition of the graph and then applies its
    effect.  Where the rule fails (future views, out-of-order log
    positions, commits that gain nothing) the handler returns None and the
    message stays in flight; the only no-op deliveries are stale Prepares
    and requests at a settled non-master, which are consumed without
    effect.  All quorum tracking fits in the fields above only because
    one peer's evidence completes every majority at N <= 3, which is why
    the bounds refuse larger systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .. import canon
from ..actors import (
    DELIVER,
    EXTERNAL,
    INJECT,
    Action,
    Actor,
    Emulator,
    Event,
    OperationRequest,
    send,
)
from ..model import GuardViolationError, Invariant, Model, ModelState, merged_events

# The step memo's marker for a key it does not hold yet.
_UNSEEN = object()

NORMAL = "Normal"
VIEW_CHANGE = "ViewChange"

REQUEST = "Request"
PREPARE = "Prepare"
PREPARE_OK = "PrepareOk"
COMMIT = "Commit"
START_VIEW_CHANGE = "StartViewChange"
DO_VIEW_CHANGE = "DoViewChange"
START_VIEW = "StartView"
CATCHUP_QUERY = "CatchupQuery"
CATCHUP_REPLY = "CatchupReply"


@dataclass(frozen=True)
class VrBounds:
    replicas: int = 3
    max_queries: int = 1
    max_views: int = 1

    def __post_init__(self):
        if not 1 <= self.replicas <= 3:
            raise ValueError(
                "replicas must be 1..3: quorum tracking uses single-vote "
                "evidence, which is only a majority for systems this small"
            )
        if self.max_queries < 0 or self.max_views < 0:
            raise ValueError("bounds must be non-negative")


def initial_replica(replica: int) -> canon.Record:
    return canon.Record(
        status=NORMAL,
        log=(),
        viewNumber=0,
        commitNumber=0,
        downloadReplica=replica,
        catchupPos=0,
        phase2=False,
    )


def last_entry_view(log: tuple) -> int:
    return log[-1]["view"] if log else -1


def committed_prefix(rec: canon.Record) -> tuple:
    return rec["log"][: rec["commitNumber"]]


class VrModel(Model):
    """Executable reference model of the replication protocol."""

    name = "vr"

    def __init__(self, bounds: VrBounds, commit_without_quorum: bool = False):
        self.bounds = bounds
        self.n = bounds.replicas
        # Deliberate-bug switch used to regression-test invariant checking:
        # the master commits fresh entries at append time, unreplicated.
        self.commit_without_quorum = commit_without_quorum
        # Actor-local step memo, keyed on (destination record, event): the
        # handler's (record, emissions), or None where the delivery is not
        # a transition.  Sound because the handlers read only the
        # destination's record, the event and constants of this model
        # (``n``, ``commit_without_quorum``).  The key compares by value,
        # as explore's state dedup already does.
        self._steps: dict[tuple, tuple[canon.Record, tuple[Event, ...]] | None] = {}
        # One object per step value: the initial records and every handler
        # output (record and emitted events) pass through this table, keyed
        # by type and canonical text.  Text, not ``==``: Record(a=1) equals
        # Record(a=True) but is written differently.  Equal records and
        # events are then one object, so the memo above and explore's
        # state dedup hit by identity, and each hash and text is computed
        # once.
        self._interned: dict[tuple[type, str], canon.Record | Event] = {}
        # One actor tuple per value, for each successor to keep: states
        # share far fewer actor tuples than there are states (vr r3 q1 v1:
        # 500 for 72,518), and dedup then compares them by identity.  Keyed
        # by the records' ids, which the tuple keeps alive: the records are
        # interned above, so one id is one text.
        self._actor_tuples: dict[tuple[int, ...], tuple] = {}
        # One Action per distinct action, with its sort token: injects
        # keyed on (kind, op or view, destination), deliveries on the
        # event's canonical text.
        self._inject_actions: dict[tuple[str, int, int], tuple[tuple, Action]] = {}
        self._deliver_actions: dict[str, tuple[tuple, Action]] = {}

    def _intern(self, value):
        """This model's one object of ``value``'s canonical text."""
        text = value.key() if type(value) is Event else canon.dumps(value)
        return self._interned.setdefault((type(value), text), value)

    def _master(self, view: int) -> int:
        return view % self.n

    def _others(self, replica: int) -> list[int]:
        return [k for k in range(self.n) if k != replica]

    def initial_state(self) -> ModelState:
        return ModelState(
            actors=tuple(self._intern(initial_replica(r)) for r in range(self.n)),
            alive=(True,) * self.n,
            globals_=canon.Record(queriesCount=0),
            events=(),
        )

    # ------------------------------------------------------------------
    # Enabledness

    def enabled_actions(self, state: ModelState) -> list[Action]:
        actions: list[tuple[tuple, Action]] = []  # (sort token, action)
        queries = state.globals_["queriesCount"]
        if queries < self.bounds.max_queries:
            for dest in range(self.n):
                actions.append(self._inject_action(REQUEST, "op", queries + 1, dest))
        # One timer stimulus in flight at a time; concurrent elections for
        # the same view still arise through undelivered broadcasts.
        timeout_pending = False
        for event in state.events:
            if event.source == EXTERNAL and event.kind == START_VIEW_CHANGE:
                timeout_pending = True
            if (
                event.destination != EXTERNAL
                and self._step(state.actors[event.destination], event) is not None
            ):
                actions.append(self._deliver_action(event))
        if not timeout_pending:
            for dest in range(self.n):
                view = state.actors[dest]["viewNumber"]
                if view < self.bounds.max_views:
                    actions.append(self._inject_action(START_VIEW_CHANGE, "view", view + 1, dest))
        # The tokens of distinct actions differ, so no two actions are compared.
        actions.sort(key=itemgetter(0))
        return [action for _token, action in actions]

    def _inject_action(self, kind: str, field: str, value: int, dest: int) -> tuple[tuple, Action]:
        key = (kind, value, dest)
        entry = self._inject_actions.get(key)
        if entry is None:
            action = Action.inject(Event(kind, {field: value}, EXTERNAL, dest))
            entry = self._inject_actions[key] = (action.sort_token(), action)
        return entry

    def _deliver_action(self, event: Event) -> tuple[tuple, Action]:
        key = event.key()
        entry = self._deliver_actions.get(key)
        if entry is None:
            action = Action.deliver(event)
            entry = self._deliver_actions[key] = (action.sort_token(), action)
        return entry

    def _step(self, rec: canon.Record, event: Event) -> tuple | None:
        """Delivering ``event`` to ``rec``: the replica's new record and the
        events it emits, or None where the delivery is not a transition of
        the graph.

        Events a replica is not ready for (future views, log gaps) and
        events that would change nothing stay pending instead of being
        consumed: a consumable no-op message doubles the reachable state
        space for every state it floats through, so the only no-op
        deliveries kept are the ones worth testing an implementation
        against (dropping stale Prepares and ignoring client requests at
        a non-master).
        """
        key = (rec, event)
        step = self._steps.get(key, _UNSEEN)
        if step is _UNSEEN:
            handler = self._HANDLERS.get(event.kind)
            if handler is None:
                raise GuardViolationError(f"unknown message kind {event.kind!r}")
            step = handler(self, dict(rec), event)
            if step is not None:
                step = (self._intern(canon.Record(step[0])), tuple(map(self._intern, step[1])))
            self._steps[key] = step
        return step

    # ------------------------------------------------------------------
    # Transitions

    def apply(self, state: ModelState, action: Action) -> ModelState:
        if action.kind == INJECT:
            return self._apply_inject(state, action.event)
        if action.kind == DELIVER:
            return self._apply_deliver(state, action.event)
        raise GuardViolationError(f"action kind {action.kind!r} not part of this model")

    def _apply_inject(self, state: ModelState, event: Event) -> ModelState:
        globals_ = state.globals_
        if event.source != EXTERNAL or not 0 <= event.destination < self.n:
            raise GuardViolationError(f"cannot inject {event.key()}")
        if event.kind == REQUEST:
            op = globals_["queriesCount"] + 1
            if op > self.bounds.max_queries:
                raise GuardViolationError("query bound exhausted")
            if event.payload != canon.Record(op=op):
                raise GuardViolationError(f"unexpected request {event.key()}")
            globals_ = globals_.replace(queriesCount=op)
        elif event.kind == START_VIEW_CHANGE:
            view = state.actors[event.destination]["viewNumber"]
            if view >= self.bounds.max_views:
                raise GuardViolationError("view bound exhausted")
            if event.payload != canon.Record(view=view + 1):
                raise GuardViolationError(f"unexpected timeout {event.key()}")
            if any(e.kind == START_VIEW_CHANGE and e.source == EXTERNAL for e in state.events):
                raise GuardViolationError("a timer stimulus is already pending")
        else:
            raise GuardViolationError(f"cannot inject {event.kind}")
        return ModelState(
            actors=state.actors,
            alive=state.alive,
            globals_=globals_,
            events=merged_events(state.events, None, [event]),
        )

    def _apply_deliver(self, state: ModelState, event: Event) -> ModelState:
        # By identity first: an enabled delivery's event is the object in flight.
        if id(event) not in map(id, state.events) and event not in state.events:
            raise GuardViolationError(f"event not in flight: {event.key()}")
        step = self._step(state.actors[event.destination], event)
        if step is None:
            raise GuardViolationError(f"delivery not enabled: {event.key()}")
        rec, emitted = step
        actors = state.replace_actor(event.destination, rec)
        return ModelState(
            actors=self._actor_tuples.setdefault(tuple(map(id, actors)), actors),
            alive=state.alive,
            globals_=state.globals_,
            events=merged_events(state.events, event, emitted),
        )

    # Each handler takes a mutable copy of the destination replica's record
    # and returns (record, emitted events), or None where its kind's rule
    # leaves the event in flight.

    def _dvc(self, rec: dict, sender: int, view: int) -> Event:
        payload = {
            "view": view,
            "commit": rec["commitNumber"],
            "lastEntryView": last_entry_view(rec["log"]),
            "logLen": len(rec["log"]),
        }
        return Event(DO_VIEW_CHANGE, payload, sender, self._master(view))

    def _adopt(self, rec: dict, replica: int, view: int, voted: bool) -> list[Event]:
        rec.update(
            status=VIEW_CHANGE,
            viewNumber=view,
            downloadReplica=None,
            catchupPos=0,
            phase2=False,
        )
        emitted = [
            Event(START_VIEW_CHANGE, {"view": view}, replica, k) for k in self._others(replica)
        ]
        if self.n == 1:
            rec.update(status=NORMAL, phase2=True, downloadReplica=replica)
            return emitted
        if voted:
            rec["phase2"] = True
            if replica != self._master(view):
                emitted.append(self._dvc(rec, replica, view))
        return emitted

    def _on_request(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        replica = event.destination
        if rec["status"] != NORMAL or rec["downloadReplica"] != replica:
            return None  # mid-election: held, which keeps drop-noise edges out
        view = rec["viewNumber"]
        if replica != self._master(view):
            return rec, []  # a settled non-master drops the request
        entry = canon.Record(view=view, op=event.payload["op"])
        rec["log"] = rec["log"] + (entry,)
        if self.n == 1 or self.commit_without_quorum:
            rec["commitNumber"] = len(rec["log"])
        payload = {
            "view": view,
            "pos": len(rec["log"]),
            "entry": entry,
            "commit": rec["commitNumber"],
        }
        emitted = [Event(PREPARE, payload, replica, k) for k in self._others(replica)]
        return rec, emitted

    def _on_prepare(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        p = event.payload
        if rec["status"] != NORMAL or rec["downloadReplica"] != event.destination:
            return None  # mid-election or downloading: held
        if p["view"] < rec["viewNumber"]:
            return rec, []  # stale view: a settled replica drops it
        if p["view"] > rec["viewNumber"] or p["pos"] > len(rec["log"]) + 1:
            return None  # future view or log gap
        emitted = []
        if p["pos"] == len(rec["log"]) + 1:
            rec["log"] = rec["log"] + (p["entry"],)
            ack = {"view": p["view"], "pos": p["pos"]}
            emitted.append(Event(PREPARE_OK, ack, event.destination, self._master(p["view"])))
        rec["commitNumber"] = max(rec["commitNumber"], min(p["commit"], len(rec["log"])))
        return rec, emitted

    def _on_prepare_ok(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        p = event.payload
        replica = event.destination
        view = rec["viewNumber"]
        confirmed = min(p["pos"], len(rec["log"]))
        if (
            p["view"] != view
            or rec["status"] != NORMAL
            or replica != self._master(view)
            or confirmed <= rec["commitNumber"]
        ):
            return None  # stale, or already committed through here
        rec["commitNumber"] = confirmed
        payload = {"view": view, "commit": confirmed}
        emitted = [Event(COMMIT, payload, replica, k) for k in self._others(replica)]
        return rec, emitted

    def _on_commit(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        p = event.payload
        commit = min(p["commit"], len(rec["log"]))
        settled = p["view"] <= rec["viewNumber"] and rec["status"] == NORMAL
        if not settled or commit <= rec["commitNumber"]:
            return None  # future view, mid-election, or no gain
        rec["commitNumber"] = commit
        return rec, []

    def _on_start_view_change(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        replica = event.destination
        view = event.payload["view"]
        if view > rec["viewNumber"]:
            return rec, self._adopt(rec, replica, view, voted=event.source != EXTERNAL)
        if (
            view != rec["viewNumber"]
            or rec["status"] != VIEW_CHANGE
            or rec["phase2"]
            or event.source == EXTERNAL
        ):
            return None  # stale, or no vote this election still needs
        rec["phase2"] = True
        if replica != self._master(view):
            return rec, [self._dvc(rec, replica, view)]
        return rec, []

    def _on_do_view_change(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        replica = event.destination
        view = event.payload["view"]
        if replica != self._master(view) or view < rec["viewNumber"]:
            return None  # misaddressed or stale
        if view > rec["viewNumber"]:
            emitted = self._adopt(rec, replica, view, voted=True)
        elif rec["status"] == VIEW_CHANGE and rec["downloadReplica"] is None:
            emitted = []
        else:
            return None  # this view's log is chosen already
        if rec["status"] == VIEW_CHANGE:  # a lone replica settles as it adopts
            rec["phase2"] = True
            p = event.payload
            own = (rec["commitNumber"], last_entry_view(rec["log"]), len(rec["log"]))
            candidate = (p["commit"], p["lastEntryView"], p["logLen"])
            if candidate > own:
                rec["downloadReplica"] = event.source
                rec["log"] = rec["log"][: rec["commitNumber"]]
                rec["catchupPos"] = rec["commitNumber"]
                query = {"view": view, "pos": rec["commitNumber"] + 1}
                emitted.append(Event(CATCHUP_QUERY, query, replica, event.source))
            else:
                rec["downloadReplica"] = replica
                rec["status"] = NORMAL
                rec["catchupPos"] = 0
                emitted.extend(self._start_view_broadcast(rec, replica, view))
        return rec, emitted

    def _start_view_broadcast(self, rec: dict, replica: int, view: int) -> list[Event]:
        payload = {"view": view, "logLen": len(rec["log"]), "commit": rec["commitNumber"]}
        return [Event(START_VIEW, payload, replica, k) for k in self._others(replica)]

    def _on_start_view(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        replica = event.destination
        p = event.payload
        view = p["view"]
        if view < rec["viewNumber"] or (view == rec["viewNumber"] and rec["status"] == NORMAL):
            return None  # stale announcement
        rec.update(viewNumber=view, status=NORMAL, phase2=False)
        rec["log"] = rec["log"][: rec["commitNumber"]]
        emitted = []
        if len(rec["log"]) < p["logLen"]:
            rec["downloadReplica"] = event.source
            rec["catchupPos"] = len(rec["log"])
            query = {"view": view, "pos": len(rec["log"]) + 1}
            emitted.append(Event(CATCHUP_QUERY, query, replica, event.source))
        else:
            rec["downloadReplica"] = replica
            rec["catchupPos"] = 0
            if len(rec["log"]) > p["commit"]:
                ack = {"view": view, "pos": len(rec["log"])}
                emitted.append(Event(PREPARE_OK, ack, replica, self._master(view)))
        return rec, emitted

    def _on_catchup_query(self, rec: dict, event: Event) -> tuple[dict, list[Event]]:
        p = event.payload
        pos = p["pos"]
        log = rec["log"]
        payload = {
            "view": p["view"],
            "pos": pos,
            "entry": log[pos - 1] if 1 <= pos <= len(log) else None,
            "srcLogLen": len(log),
            "srcCommit": rec["commitNumber"],
        }
        return rec, [Event(CATCHUP_REPLY, payload, event.destination, event.source)]

    def _on_catchup_reply(self, rec: dict, event: Event) -> tuple[dict, list[Event]] | None:
        replica = event.destination
        p = event.payload
        view = p["view"]
        source = rec["downloadReplica"]
        if view != rec["viewNumber"] or source is None or source == replica:
            return None  # not downloading (anymore)
        if p["entry"] is not None and p["pos"] == len(rec["log"]) + 1:
            rec["log"] = rec["log"] + (p["entry"],)
            rec["catchupPos"] = p["pos"]
            rec["commitNumber"] = max(
                rec["commitNumber"], min(p["srcCommit"], len(rec["log"]))
            )
        if len(rec["log"]) < p["srcLogLen"]:
            query = {"view": view, "pos": len(rec["log"]) + 1}
            return rec, [Event(CATCHUP_QUERY, query, replica, source)]
        rec["downloadReplica"] = replica
        rec["catchupPos"] = 0
        if replica == self._master(view):
            rec["status"] = NORMAL
            return rec, self._start_view_broadcast(rec, replica, view)
        if len(rec["log"]) > p["srcCommit"]:
            ack = {"view": view, "pos": len(rec["log"])}
            return rec, [Event(PREPARE_OK, ack, replica, self._master(view))]
        return rec, []

    # Plain functions, called with the model: a table of bound methods on
    # the instance would keep every model (and its memos) in a reference
    # cycle that only the cyclic collector frees.
    _HANDLERS = {
        REQUEST: _on_request,
        PREPARE: _on_prepare,
        PREPARE_OK: _on_prepare_ok,
        COMMIT: _on_commit,
        START_VIEW_CHANGE: _on_start_view_change,
        DO_VIEW_CHANGE: _on_do_view_change,
        START_VIEW: _on_start_view,
        CATCHUP_QUERY: _on_catchup_query,
        CATCHUP_REPLY: _on_catchup_reply,
    }

    # ------------------------------------------------------------------
    # Safety and progress checks

    def invariants(self) -> list[Invariant]:
        # Each check is memoized on exactly what it reads: PrefixLogConsistency
        # the replica records, TypeBounds those and the globals (plus this
        # model's constants).  Explore's states take far fewer distinct
        # values of these than there are states (vr r3 q1 v1: 500 actor
        # tuples for 72,518 states).  Keys compare by value, as the step
        # memo's do.  The memos live as long as the returned list, so for
        # one explore.
        return [
            Invariant(
                "PrefixLogConsistency",
                _memoized(self._check_prefix_consistency, lambda s: s.actors),
            ),
            Invariant(
                "TypeBounds",
                _memoized(self._check_type_bounds, lambda s: (s.actors, s.globals_)),
            ),
        ]

    def _check_prefix_consistency(self, state: ModelState) -> str | None:
        prefixes = [committed_prefix(rec) for rec in state.actors]
        for i in range(self.n):
            for j in range(i + 1, self.n):
                a, b = prefixes[i], prefixes[j]
                short, long_ = (a, b) if len(a) <= len(b) else (b, a)
                if long_[: len(short)] != short:
                    return (
                        f"replica {i} committed {canon.dumps(a)} but "
                        f"replica {j} committed {canon.dumps(b)}"
                    )
        return None

    def _check_type_bounds(self, state: ModelState) -> str | None:
        for i, rec in enumerate(state.actors):
            if not 0 <= rec["commitNumber"] <= len(rec["log"]):
                return f"replica {i}: commitNumber {rec['commitNumber']} outside log"
            if rec["viewNumber"] > self.bounds.max_views:
                return f"replica {i}: viewNumber {rec['viewNumber']} beyond bound"
        if state.globals_["queriesCount"] > self.bounds.max_queries:
            return "queriesCount beyond bound"
        return None

    def bounds_exhausted(self, state: ModelState) -> bool:
        if state.globals_["queriesCount"] < self.bounds.max_queries:
            return False
        return all(rec["viewNumber"] >= self.bounds.max_views for rec in state.actors)

    def quiescence_violation(self, state: ModelState) -> str | None:
        if state.globals_["queriesCount"] != self.bounds.max_queries:
            return f"queriesCount {state.globals_['queriesCount']} not exhausted"
        for i, rec in enumerate(state.actors):
            if rec["status"] != NORMAL:
                return f"replica {i} stuck in {rec['status']}"
            if rec["commitNumber"] != len(rec["log"]):
                return (
                    f"replica {i} committed {rec['commitNumber']} of "
                    f"{len(rec['log'])} log entries"
                )
        return None


def _memoized(check, reads):
    """``check`` with its verdicts kept per value of ``reads(state)``.

    ``reads`` must return everything of the state that ``check`` reads.
    """
    verdicts: dict = {}

    def memoized(state: ModelState) -> str | None:
        key = reads(state)
        try:
            return verdicts[key]
        except KeyError:
            verdict = verdicts[key] = check(state)
            return verdict

    return memoized


class VrActor(Actor):
    """Implementation-side replica driven purely by delivered events.

    The log, view number and commit number are persistent; status,
    download bookkeeping and the quorum flag are volatile.  Class-level
    switches exist only so the mutation catalog can plant single,
    realistic bugs; they all default to correct behavior.
    """

    skip_commit_advance = False
    skip_commit_broadcast = False
    prepend_log_entries = False
    accept_stale_prepare = False
    keep_phase2_on_start_view = False

    def __init__(self, actor_id: int, system_size: int):
        super().__init__(actor_id, system_size)
        self.log: list = []
        self.view_number = 0
        self.commit_number = 0
        self.status = NORMAL
        self.download_replica: int | None = actor_id
        self.catchup_pos = 0
        self.phase2 = False

    def reset_volatile(self) -> None:
        self.status = NORMAL
        self.download_replica = self.actor_id
        self.catchup_pos = 0
        self.phase2 = False

    # The log is the only mutable field; its entries are immutable Records.
    def save(self):
        return {**self.__dict__, "log": list(self.log)}

    def restore(self, saved) -> None:
        self.__dict__.clear()
        self.__dict__.update(saved)
        self.log = list(saved["log"])

    def to_model(self):
        return canon.Record(
            status=self.status,
            log=tuple(self.log),
            viewNumber=self.view_number,
            commitNumber=self.commit_number,
            downloadReplica=self.download_replica,
            catchupPos=self.catchup_pos,
            phase2=self.phase2,
        )

    # ------------------------------------------------------------------

    def _master(self, view: int) -> int:
        return view % self.system_size

    def _others(self) -> list[int]:
        return [k for k in range(self.system_size) if k != self.actor_id]

    def _append(self, entry) -> None:
        if self.prepend_log_entries:
            self.log.insert(0, entry)
        else:
            self.log.append(entry)

    def _dvc_request(self, view: int) -> OperationRequest:
        payload = {
            "view": view,
            "commit": self.commit_number,
            "lastEntryView": last_entry_view(tuple(self.log)),
            "logLen": len(self.log),
        }
        return send(self._master(view), DO_VIEW_CHANGE, payload)

    def _adopt(self, view: int, voted: bool) -> list[OperationRequest]:
        self.status = VIEW_CHANGE
        self.view_number = view
        self.download_replica = None
        self.catchup_pos = 0
        self.phase2 = False
        out = [send(k, START_VIEW_CHANGE, {"view": view}) for k in self._others()]
        if self.system_size == 1:
            self.status = NORMAL
            self.phase2 = True
            self.download_replica = self.actor_id
            return out
        if voted:
            self.phase2 = True
            if self.actor_id != self._master(view):
                out.append(self._dvc_request(view))
        return out

    def _start_view_requests(self, view: int) -> list[OperationRequest]:
        payload = {"view": view, "logLen": len(self.log), "commit": self.commit_number}
        return [send(k, START_VIEW, payload) for k in self._others()]

    def on_event(self, event: Event) -> list[OperationRequest]:
        handler = {
            REQUEST: self._on_request,
            PREPARE: self._on_prepare,
            PREPARE_OK: self._on_prepare_ok,
            COMMIT: self._on_commit,
            START_VIEW_CHANGE: self._on_start_view_change,
            DO_VIEW_CHANGE: self._on_do_view_change,
            START_VIEW: self._on_start_view,
            CATCHUP_QUERY: self._on_catchup_query,
            CATCHUP_REPLY: self._on_catchup_reply,
        }.get(event.kind)
        if handler is None:
            raise ValueError(f"unhandled event kind {event.kind!r}")
        return handler(event)

    def _on_request(self, event: Event) -> list[OperationRequest]:
        view = self.view_number
        if (
            self.status != NORMAL
            or self.actor_id != self._master(view)
            or self.download_replica != self.actor_id
        ):
            return []
        entry = canon.Record(view=view, op=event.payload["op"])
        self._append(entry)
        if self.system_size == 1:
            self.commit_number = len(self.log)
            return []
        payload = {
            "view": view,
            "pos": len(self.log),
            "entry": entry,
            "commit": self.commit_number,
        }
        return [send(k, PREPARE, payload) for k in self._others()]

    def _on_prepare(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        if p["view"] < self.view_number and not self.accept_stale_prepare:
            return []
        if p["view"] > self.view_number:
            return []
        if self.status != NORMAL or self.download_replica != self.actor_id:
            return []
        out = []
        if p["pos"] == len(self.log) + 1:
            self._append(p["entry"])
            ack = {"view": p["view"], "pos": p["pos"]}
            out.append(send(self._master(p["view"]), PREPARE_OK, ack))
        self.commit_number = max(self.commit_number, min(p["commit"], len(self.log)))
        return out

    def _on_prepare_ok(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        view = self.view_number
        if p["view"] != view or self.status != NORMAL or self.actor_id != self._master(view):
            return []
        confirmed = min(p["pos"], len(self.log))
        if confirmed <= self.commit_number:
            return []
        if not self.skip_commit_advance:
            self.commit_number = confirmed
        if self.skip_commit_broadcast:
            return []
        payload = {"view": view, "commit": self.commit_number}
        return [send(k, COMMIT, payload) for k in self._others()]

    def _on_commit(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        if p["view"] <= self.view_number and self.status == NORMAL:
            self.commit_number = max(self.commit_number, min(p["commit"], len(self.log)))
        return []

    def _on_start_view_change(self, event: Event) -> list[OperationRequest]:
        view = event.payload["view"]
        if view > self.view_number:
            return self._adopt(view, voted=event.source != EXTERNAL)
        if (
            view == self.view_number
            and self.status == VIEW_CHANGE
            and not self.phase2
            and event.source != EXTERNAL
        ):
            self.phase2 = True
            if self.actor_id != self._master(view):
                return [self._dvc_request(view)]
        return []

    def _on_do_view_change(self, event: Event) -> list[OperationRequest]:
        view = event.payload["view"]
        if self.actor_id != self._master(view):
            return []
        out: list[OperationRequest] = []
        if view > self.view_number:
            out.extend(self._adopt(view, voted=True))
        if (
            view == self.view_number
            and self.status == VIEW_CHANGE
            and self.download_replica is None
        ):
            self.phase2 = True
            p = event.payload
            own = (self.commit_number, last_entry_view(tuple(self.log)), len(self.log))
            candidate = (p["commit"], p["lastEntryView"], p["logLen"])
            if candidate > own:
                self.download_replica = event.source
                del self.log[self.commit_number :]
                self.catchup_pos = self.commit_number
                query = {"view": view, "pos": self.commit_number + 1}
                out.append(send(event.source, CATCHUP_QUERY, query))
            else:
                self.download_replica = self.actor_id
                self.status = NORMAL
                self.catchup_pos = 0
                out.extend(self._start_view_requests(view))
        return out

    def _on_start_view(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        view = p["view"]
        if view < self.view_number or (view == self.view_number and self.status == NORMAL):
            return []
        self.view_number = view
        self.status = NORMAL
        if not self.keep_phase2_on_start_view:
            self.phase2 = False
        del self.log[self.commit_number :]
        if len(self.log) < p["logLen"]:
            self.download_replica = event.source
            self.catchup_pos = len(self.log)
            query = {"view": view, "pos": len(self.log) + 1}
            return [send(event.source, CATCHUP_QUERY, query)]
        self.download_replica = self.actor_id
        self.catchup_pos = 0
        if len(self.log) > p["commit"]:
            ack = {"view": view, "pos": len(self.log)}
            return [send(self._master(view), PREPARE_OK, ack)]
        return []

    def _on_catchup_query(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        pos = p["pos"]
        payload = {
            "view": p["view"],
            "pos": pos,
            "entry": self.log[pos - 1] if 1 <= pos <= len(self.log) else None,
            "srcLogLen": len(self.log),
            "srcCommit": self.commit_number,
        }
        return [send(event.source, CATCHUP_REPLY, payload)]

    def _on_catchup_reply(self, event: Event) -> list[OperationRequest]:
        p = event.payload
        view = p["view"]
        source = self.download_replica
        if view != self.view_number or source is None or source == self.actor_id:
            return []
        if p["entry"] is not None and p["pos"] == len(self.log) + 1:
            self._append(p["entry"])
            self.catchup_pos = p["pos"]
            self.commit_number = max(self.commit_number, min(p["srcCommit"], len(self.log)))
        if len(self.log) < p["srcLogLen"]:
            query = {"view": view, "pos": len(self.log) + 1}
            return [send(source, CATCHUP_QUERY, query)]
        self.download_replica = self.actor_id
        self.catchup_pos = 0
        if self.actor_id == self._master(view):
            self.status = NORMAL
            return self._start_view_requests(view)
        if len(self.log) > p["srcCommit"]:
            ack = {"view": view, "pos": len(self.log)}
            return [send(self._master(view), PREPARE_OK, ack)]
        return []


class _SkipCommitActor(VrActor):
    skip_commit_advance = True


class _NoCommitBroadcastActor(VrActor):
    skip_commit_broadcast = True


class _PrependEntryActor(VrActor):
    prepend_log_entries = True


class _StalePrepareActor(VrActor):
    accept_stale_prepare = True


class _KeepPhase2Actor(VrActor):
    keep_phase2_on_start_view = True


MUTANTS: dict[str, type[VrActor]] = {
    "skip-commit": _SkipCommitActor,
    "no-commit-broadcast": _NoCommitBroadcastActor,
    "prepend-entry": _PrependEntryActor,
    "stale-prepare": _StalePrepareActor,
    "keep-phase2": _KeepPhase2Actor,
}


def make_emulator(bounds: VrBounds, actor_cls: type[VrActor] = VrActor) -> Emulator:
    return Emulator(bounds.replicas, actor_cls)

