"""Causal op identity: which control op is this thread working for?

The ODIN driver stamps every control op with a monotonically
increasing ``op_id`` (the op sequence number) and the ``epoch_id`` of
the batching window it rides in.  Both ids travel to the workers inside
the :data:`~repro.odin.opcodes.EPOCH` wire envelope -- one per epoch,
carrying the first record's op_id; record i's is that plus i -- and
both ends publish them here, thread-locally, for the duration of the
op.  Downstream instrumentation -- worker spans, the
flight recorder, the collective wrapper in :mod:`repro.mpi.comm` --
reads the current identity with one TLS lookup and attaches it to
whatever it records, which is what lets a byte on the wire be
attributed back to the driver call that caused it.

Propagation rules (documented in docs/INTERNALS.md section 10):

- The driver sets the identity when it issues an op, before the op
  joins the epoch buffer.  The op that ships the buffer (a synchronizing
  op, or a data-carrying scatter) is current while the envelope is
  broadcast, so an epoch's broadcast is attributed to that op.
- A worker sets the identity as it starts each record of an envelope
  and leaves it set until the next record starts.  The blocking wait
  for the next envelope is therefore attributed to the last record of
  this one (the "smear" -- deliberate: that wait is time the worker
  spent finishing/idling on behalf of that epoch), and the result
  gather of a synchronizing record is correctly tagged with its id.
- Recovery replays re-send ops under *fresh* ids, so replayed work is
  distinguishable from the original attempt while still agreeing
  between driver and workers.

This module also keeps the rank-thread registry the sampling profiler
uses to label stacks: :meth:`RankContext.bind()
<repro.mpi.runtime.RankContext.bind>` registers worker/SPMD threads as
``rank N`` and the ODIN driver registers its calling thread as
``driver``.  Stdlib-only on purpose -- everything in the runtime may
import it without cycles.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

__all__ = ["set_current", "current", "current_op_id", "clear_current",
           "note_rank_thread", "forget_rank_thread", "rank_threads"]


class _Causal(threading.local):
    op_id: Optional[int] = None
    epoch_id: Optional[int] = None


_tls = _Causal()

_registry_lock = threading.Lock()
_rank_threads: Dict[int, str] = {}  # thread ident -> label


def set_current(op_id: Optional[int], epoch_id: Optional[int]) -> None:
    """Publish the causal identity of the op this thread is executing."""
    _tls.op_id = op_id
    _tls.epoch_id = epoch_id


def current() -> Tuple[Optional[int], Optional[int]]:
    """The calling thread's ``(op_id, epoch_id)`` (None outside an op)."""
    return _tls.op_id, _tls.epoch_id


def current_op_id() -> Optional[int]:
    return _tls.op_id


def clear_current() -> None:
    _tls.op_id = None
    _tls.epoch_id = None


def note_rank_thread(label: str) -> None:
    """Register the calling thread under *label* for the profiler."""
    with _registry_lock:
        _rank_threads[threading.get_ident()] = str(label)


def forget_rank_thread() -> None:
    with _registry_lock:
        _rank_threads.pop(threading.get_ident(), None)


def rank_threads() -> Dict[int, str]:
    """Snapshot of registered rank threads: ``{thread ident: label}``."""
    with _registry_lock:
        return dict(_rank_threads)
