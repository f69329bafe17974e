"""Driver-side epoch op-log: the replay half of checkpoint/replay.

The ODIN driver already funnels every mutation through a single broadcast
point (PR 4's batched control plane), so a faithful op-log costs one list
append per op.  On recovery the log is replayed in issue order onto the
shrunk communicator; determinism follows from the control plane's own
determinism -- the same ops applied to the same restored state produce the
same arrays, modulo the float reduction reorder the conformance ULP policy
already tolerates.

Distributions embedded in logged ops are bound to the old worker count;
:func:`remap_op_dists` rewrites them via ``Distribution.with_nworkers``
when the log is replayed on fewer workers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..odin.distribution import Distribution

__all__ = ["OpLog", "remap_op_dists"]


def remap_op_dists(op: Tuple, nworkers: int) -> Tuple:
    """Return *op* with every embedded Distribution rebound to *nworkers*.

    Ops are nested tuples/lists of scalars, strings, ndarrays and
    Distribution descriptors; the walk rebuilds only the spines that
    contain a distribution.
    """
    def walk(node):
        if isinstance(node, Distribution):
            if node.nworkers == nworkers:
                return node
            return node.with_nworkers(nworkers)
        if isinstance(node, tuple):
            return tuple(walk(x) for x in node)
        if isinstance(node, list):
            return [walk(x) for x in node]
        return node

    return walk(op)


class OpLog:
    """Ordered record of mutating control-plane ops since the last
    checkpoint.

    Each entry is ``(op, data)``: *data* is None except for a scatter,
    which pins a copy of the scattered global array (the driver's
    payload is gone after the wire scatter, so replay needs its own
    reference).  The log lives entirely on the driver; workers hold the
    complementary state half (partner block checkpoints).
    """

    def __init__(self):
        self._ops: List[Tuple[Tuple, Optional[np.ndarray]]] = []

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, op: Tuple, data: Optional[np.ndarray] = None) -> None:
        """Log a broadcast control-plane op, and a copy of the data it
        shipped, for replay."""
        self._ops.append((op, None if data is None
                          else np.array(data, copy=True)))

    def clear(self) -> None:
        """Drop the log -- called when a checkpoint supersedes it."""
        self._ops = []

    def entries(self) -> List[Tuple[Tuple, Optional[np.ndarray]]]:
        return list(self._ops)

    def replay_bytes(self) -> int:
        """Approximate driver memory pinned by the log (scatter payloads)."""
        return sum(data.nbytes for _op, data in self._ops
                   if data is not None)
