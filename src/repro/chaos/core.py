"""Deterministic fault injection for the MPI substrate.

A :class:`FaultPlan` is a seed plus an ordered list of declarative
:class:`FaultRule`\\ s.  The runtime consults the process-wide
:data:`ENGINE` at its injection points (``runtime.py`` sends/receives,
``comm.py`` collectives, ``rma.py`` one-sided ops); when no plan is
installed every site costs a single ``if ENGINE.enabled`` predicate,
mirroring ``repro.trace``.

Determinism contract
--------------------
Whether a rule fires for a given operation depends only on
``(plan.seed, rule index, rank, rank-local step number)``, mixed through
a splitmix64-style integer hash -- never on wall-clock time, thread
interleaving, or Python's per-process ``hash()`` salt.  Each rank's
operation sequence is fixed by SPMD program order, so the same plan
against the same program injects the *same* fault schedule on every run:
``python -m repro.chaos --seed N ...`` replays bit-identically.

Fault model (all bounded -- nothing ever hangs):

- ``delay``    sleep before a matching operation (late-sender shapes);
- ``slowdown`` rank-wide sleep on every matching operation;
- ``reorder``  deliver a message ahead of up to *depth* queued messages,
  but never overtaking same-``(src, ctx)`` traffic (the non-overtaking
  rule MPI guarantees is preserved);
- ``truncate`` drop the tail of an outgoing payload -- surfaces at the
  receiver as a typed :class:`~repro.mpi.errors.TruncationError`;
- ``crash``    raise :class:`~repro.mpi.errors.InjectedFault` in the
  matching rank once its step counter reaches ``after`` -- peers observe
  the usual :class:`~repro.mpi.errors.AbortError` via world abort.

Sleeps are capped at ``FaultPlan.max_sleep`` seconds so injected latency
stays far below the runtime's deadlock timeout.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultRule", "FaultPlan", "ChaosEngine", "ENGINE",
           "install", "uninstall", "active_plan"]

_MASK = (1 << 64) - 1

#: operation classes a rule may match (``op=None`` matches any of them)
OPS = ("send", "recv", "coll", "rma")


def _mix(*parts: int) -> int:
    """splitmix64-style avalanche over a tuple of ints (order-sensitive).

    Used instead of ``hash()`` because CPython salts ``hash`` per process
    (PYTHONHASHSEED), which would destroy cross-run replayability.
    """
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (p & _MASK)) & _MASK
        x = (x * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


def _unit(*parts: int) -> float:
    """Deterministic uniform draw in [0, 1) from integer inputs."""
    return _mix(*parts) / float(1 << 64)


class FaultRule:
    """One declarative injection rule.  Matching is AND over the set
    fields; ``None`` means "any"."""

    __slots__ = ("kind", "op", "rank", "peer", "prob", "seconds", "keep",
                 "after", "depth")

    def __init__(self, kind: str, op: Optional[str] = None,
                 rank: Optional[int] = None, peer: Optional[int] = None,
                 prob: float = 1.0, seconds: float = 0.0,
                 keep: float = 0.5, after: int = 0, depth: int = 1):
        if kind not in ("delay", "slowdown", "truncate", "crash", "reorder"):
            raise ValueError(f"unknown fault kind {kind!r}")
        if op is not None and op not in OPS:
            raise ValueError(f"unknown op class {op!r}; expected one of {OPS}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if not 0.0 <= keep < 1.0:
            raise ValueError("keep must be in [0, 1): truncation must "
                             "actually drop bytes")
        self.kind = kind
        self.op = op
        self.rank = rank
        self.peer = peer
        self.prob = float(prob)
        self.seconds = float(seconds)
        self.keep = float(keep)
        self.after = int(after)
        self.depth = int(depth)

    def matches(self, op: str, rank: int, peer: Optional[int]) -> bool:
        if self.op is not None and self.op != op:
            return False
        if self.rank is not None and self.rank != rank:
            return False
        if self.peer is not None and self.peer != peer:
            return False
        return True

    def to_dict(self) -> Dict[str, Any]:
        return {s: getattr(self, s) for s in self.__slots__}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultRule":
        return cls(**d)

    def __repr__(self):
        parts = [repr(self.kind)]
        for s in self.__slots__[1:]:
            v = getattr(self, s)
            default = FaultRule.__init__.__defaults__[
                list(self.__slots__[1:]).index(s)]
            if v != default:
                parts.append(f"{s}={v!r}")
        return f"FaultRule({', '.join(parts)})"


class FaultPlan:
    """A seed plus an ordered rule list; builder methods chain.

    >>> plan = (FaultPlan(seed=42)
    ...         .delay(rank=1, op="send", prob=0.3, seconds=0.01)
    ...         .crash(rank=2, after=10))
    """

    def __init__(self, seed: int = 0, rules: Tuple[FaultRule, ...] = (),
                 max_sleep: float = 2.0):
        self.seed = int(seed)
        self.rules: List[FaultRule] = list(rules)
        self.max_sleep = float(max_sleep)

    # -- builders -----------------------------------------------------------
    def _add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def delay(self, seconds: float, op: Optional[str] = "send",
              rank: Optional[int] = None, peer: Optional[int] = None,
              prob: float = 1.0) -> "FaultPlan":
        """Sleep *seconds* before matching operations (late-sender)."""
        return self._add(FaultRule("delay", op=op, rank=rank, peer=peer,
                                   prob=prob, seconds=seconds))

    def slowdown(self, seconds: float, rank: Optional[int] = None,
                 prob: float = 1.0) -> "FaultPlan":
        """Rank-wide slowdown: sleep before *every* matching operation."""
        return self._add(FaultRule("slowdown", rank=rank, prob=prob,
                                   seconds=seconds))

    def truncate(self, keep: float = 0.5, op: Optional[str] = "send",
                 rank: Optional[int] = None, peer: Optional[int] = None,
                 prob: float = 1.0) -> "FaultPlan":
        """Drop the tail of outgoing payloads, keeping *keep* fraction."""
        return self._add(FaultRule("truncate", op=op, rank=rank, peer=peer,
                                   prob=prob, keep=keep))

    def crash(self, rank: int, after: int = 0) -> "FaultPlan":
        """Raise :class:`InjectedFault` in *rank* once its rank-local
        operation counter reaches *after* (fires exactly once)."""
        return self._add(FaultRule("crash", rank=rank, after=after))

    def reorder(self, depth: int = 2, rank: Optional[int] = None,
                peer: Optional[int] = None,
                prob: float = 1.0) -> "FaultPlan":
        """Deliver matching sends ahead of up to *depth* queued messages
        from *other* (src, ctx) streams -- MPI-legal reordering only."""
        return self._add(FaultRule("reorder", op="send", rank=rank,
                                   peer=peer, prob=prob, depth=depth))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "max_sleep": self.max_sleep,
                "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FaultPlan":
        return cls(seed=d.get("seed", 0),
                   rules=tuple(FaultRule.from_dict(r)
                               for r in d.get("rules", ())),
                   max_sleep=d.get("max_sleep", 2.0))

    def __repr__(self):
        return (f"FaultPlan(seed={self.seed}, "
                f"rules=[{', '.join(map(repr, self.rules))}])")


class ChaosEngine:
    """Process-wide injection engine; one predicate when disabled.

    Hot sites check ``ENGINE.enabled`` (a plain attribute) and only then
    call into the decision machinery.  Counters and the injected-event
    log are guarded by one lock -- acceptable because the enabled path is
    for tests, not production measurement.
    """

    __slots__ = ("enabled", "_plan", "_lock", "_steps", "_fired", "_log")

    def __init__(self):
        self.enabled = False
        self._plan: Optional[FaultPlan] = None
        self._lock = threading.Lock()
        self._steps: Dict[int, int] = {}    # rank -> ops seen so far
        self._fired: set = set()            # (rule_idx, rank) crash latches
        self._log: List[Dict[str, Any]] = []

    # -- lifecycle ----------------------------------------------------------
    def install(self, plan: FaultPlan) -> None:
        with self._lock:
            self._plan = plan
            self._steps = {}
            self._fired = set()
            self._log = []
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        with self._lock:
            self._plan = None

    def active_plan(self) -> Optional[FaultPlan]:
        return self._plan

    def injected(self) -> List[Dict[str, Any]]:
        """Copy of the injected-event log (chronological per rank)."""
        with self._lock:
            return list(self._log)

    # -- decision machinery -------------------------------------------------
    def _next_step(self, rank: int) -> int:
        with self._lock:
            step = self._steps.get(rank, 0)
            self._steps[rank] = step + 1
        return step

    def _record(self, kind: str, rank: int, op: str, step: int,
                **detail: Any) -> None:
        event = {"kind": kind, "rank": rank, "op": op, "step": step}
        event.update(detail)
        with self._lock:
            self._log.append(event)
        # lazy import: chaos.core must not import repro.* at module
        # level (runtime.py imports us during package init)
        from ..trace import TRACER as _TR
        # delays and slowdowns already recorded their span in _sleep
        if _TR.enabled and kind not in ("delay", "slowdown"):
            _TR.instant("chaos", kind, rank=rank, op=op, step=step, **detail)

    def _sleep(self, kind: str, rank: int, op: str, step: int,
               seconds: float) -> None:
        seconds = min(seconds, self._plan.max_sleep if self._plan else 2.0)
        from ..trace import TRACER as _TR
        if _TR.enabled:
            # a span covering the sleep, so the injected latency is
            # visible to the analyzer's critical-path walk
            t0 = _TR.now()
            time.sleep(seconds)
            _TR.complete("chaos", kind, t0, rank=rank, op=op, step=step,
                         seconds=seconds)
        else:
            time.sleep(seconds)
        self._record(kind, rank, op, step, seconds=seconds)

    def _crash(self, rule: FaultRule, rank: int, op: str,
               step: int) -> None:
        self._record("crash", rank, op, step, after=rule.after)
        from ..mpi.errors import InjectedFault
        from ..obs.flight import FLIGHT
        FLIGHT.notify_fault("InjectedFault",
                            f"rank {rank} at step {step} ({op}): {rule!r}")
        raise InjectedFault(rank, step, repr(rule))

    def on_op(self, op: str, rank: int, peer: Optional[int] = None) -> int:
        """Consult the plan at a non-send site (recv / coll / rma entry).

        Raises :class:`InjectedFault` for crash rules; sleeps for
        delay/slowdown rules.  Returns the rank-local step number.
        """
        plan = self._plan
        if plan is None:
            return -1
        step = self._next_step(rank)
        for idx, rule in enumerate(plan.rules):
            if not rule.matches(op, rank, peer):
                continue
            if rule.kind == "crash":
                key = (idx, rank)
                if step >= rule.after and key not in self._fired:
                    self._fired.add(key)
                    self._crash(rule, rank, op, step)
            elif rule.kind in ("delay", "slowdown"):
                if _unit(plan.seed, idx, rank, step) < rule.prob:
                    self._sleep(rule.kind, rank, op, step, rule.seconds)
        return step

    def on_send(self, rank: int, dest: int, kind: str, payload: Any,
                nbytes: int) -> Tuple[Any, int, int]:
        """Consult the plan at a send site.

        Returns ``(payload, nbytes, jump)``: possibly truncated payload
        and byte count, plus a reorder *jump* (how many queued messages
        from other streams this one may overtake; 0 = in order).
        """
        plan = self._plan
        if plan is None:
            return payload, nbytes, 0
        step = self._next_step(rank)
        jump = 0
        for idx, rule in enumerate(plan.rules):
            if not rule.matches("send", rank, dest):
                continue
            if rule.kind == "crash":
                key = (idx, rank)
                if step >= rule.after and key not in self._fired:
                    self._fired.add(key)
                    self._crash(rule, rank, "send", step)
            elif rule.kind in ("delay", "slowdown"):
                if _unit(plan.seed, idx, rank, step) < rule.prob:
                    self._sleep(rule.kind, rank, "send", step, rule.seconds)
            elif rule.kind == "truncate":
                if _unit(plan.seed, idx, rank, step) < rule.prob:
                    payload, nbytes = self._truncate(
                        rule, rank, dest, step, kind, payload, nbytes)
            elif rule.kind == "reorder":
                if _unit(plan.seed, idx, rank, step) < rule.prob:
                    jump = max(jump, rule.depth)
                    self._record("reorder", rank, "send", step, dest=dest,
                                 depth=rule.depth)
        return payload, nbytes, jump

    def _truncate(self, rule: FaultRule, rank: int, dest: int, step: int,
                  kind: str, payload: Any, nbytes: int):
        if kind == "buffer":
            n = payload.size
            keep_n = min(int(n * rule.keep), max(n - 1, 0))
            payload = payload[:keep_n].copy()
            new_nbytes = payload.nbytes
        elif kind == "pickle5":
            # out-of-band payload: (blob, frames).  The frames are the
            # shared read-only isolation copies, so truncation must not
            # mutate them in place -- drop the tail of the last frame by
            # re-slicing (a fresh copy), or the blob when frame-less.
            blob, frames = payload
            if frames:
                last = frames[-1]
                n = last.nbytes
                keep_n = min(int(n * rule.keep), max(n - 1, 0))
                cut = last[:keep_n].copy()
                cut.flags.writeable = False
                frames = list(frames[:-1]) + [cut]
            else:
                n = len(blob)
                keep_n = min(int(n * rule.keep), max(n - 1, 0))
                blob = blob[:keep_n]
            payload = (blob, frames)
            new_nbytes = len(blob) + sum(f.nbytes for f in frames)
        else:  # pickle blob
            n = len(payload)
            keep_n = min(int(n * rule.keep), max(n - 1, 0))
            payload = payload[:keep_n]
            new_nbytes = keep_n
        self._record("truncate", rank, "send", step, dest=dest,
                     nbytes_before=nbytes, nbytes_after=new_nbytes)
        return payload, new_nbytes


#: the process-wide engine consulted by the MPI substrate
ENGINE = ChaosEngine()


def install(plan: FaultPlan) -> None:
    """Install *plan* as the active fault plan (enables injection)."""
    ENGINE.install(plan)


def uninstall() -> None:
    """Remove the active plan (injection sites return to one predicate)."""
    ENGINE.uninstall()


def active_plan() -> Optional[FaultPlan]:
    return ENGINE.active_plan()
