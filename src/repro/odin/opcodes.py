"""Opcodes of the driver->worker control protocol.

Control messages are tuples ``(opcode, *args)``; args are index metadata
(array ids, distribution descriptors, op names) -- never bulk array data.
The two data-plane exceptions are SCATTER (driver ships real blocks) and
GATHER (workers ship blocks back), which exist precisely so everything
else can stay small.

Ops never travel alone: the driver buffers fire-and-forget ops and
ships one EPOCH envelope (at the bottom of this file) per synchronising
op, data-carrying SCATTER, full buffer or shutdown.
"""

CREATE = "create"            # (id, dist, dtype_str, fill_spec)
SCATTER = "scatter"          # (id, dist, dtype_str) + buffer scatter
DELETE_MANY = "delete_many"  # (ids,)
DELETE = "delete"            # (id,)
GATHER = "gather"            # (id,) -> per-worker (dist, block)
FETCH = "fetch"              # (id, axis_indices) -> values at global idx
UFUNC = "ufunc"              # (name, in_specs, out_id)
FUSED = "fused"              # (program, in_ids, out_id, use_seamless)
REDIST = "redistribute"      # (src_id, dst_id, new_dist)
TRANSPOSE = "transpose"      # (src_id, dst_id, axes_perm, new_dist)
SLICE = "slice"              # (src_id, dst_id, slices, new_dist)
SETITEM = "setitem"          # (id, slices, value_spec)
REDUCE = "reduce"            # (id, op_name, axis) -> partials
MATMUL = "matmul"            # reserved
CALL_LOCAL = "call_local"    # (fn_spec, args, kwargs, out_id, out_dist)
LOAD = "load"                # (id, dist, dtype_str, path_pattern)
SAVE = "save"                # (id, path_pattern)
GROUPBY = "groupby"          # tabular shuffle-reduce
TRANSFORM = "transform"      # (src_id, dst_id, fn_spec) -> new local length
SET_DIST = "set_dist"        # (id, dist) fix metadata after a transform
PLAN_STATS = "plan_stats"    # () -> plans built
SHUTDOWN = "shutdown"

# Fault recovery (repro.recover).  CKPT snapshots every live array and
# mirrors the snapshot on the ring partner ``(w + 1) % P``.  RESTORE,
# issued on the *shrunk* communicator after a failure, rebuilds each
# array at a checkpoint version from own + partner-held blocks and
# redistributes to the remapped survivor distribution.  DIST_SYNC reports
# worker 0's authoritative ``{array_id: dist}`` so driver handles can be
# re-pointed after replay.
CKPT = "ckpt"                # (version,) -> bytes checkpointed
RESTORE = "restore"          # (version, old_indices, dead, old_n, dists)
DIST_SYNC = "dist_sync"      # (ids,) -> {id: dist} (worker 0 only)

# ``FLUSH`` is an explicit barrier op that does nothing but synchronize:
# it delivers the deferred errors of the epoch it closes.
FLUSH = "flush"              # () -> synchronize, deliver deferred errors

# Callables travel inside the op that runs them: CALL_LOCAL, TRANSFORM
# and CREATE's ("fromfunction", fn_spec) fill carry the bytes
# worker._ship_function made at issue time (marshalled code plus
# closure-cell contents, or a pickle reference), the same on both
# backends; no worker keeps a registry.
#
# Process-backend chaos control.  Thread workers share the driver's
# process-wide chaos engine; process workers each own one, so the driver
# installs a plan there explicitly.  CHAOS_INSTALL carries a
# FaultPlan.to_dict().  Both synchronize (never batched), so ordering
# against subsequent ops is guaranteed by the serve loop's in-order
# execution.
CHAOS_INSTALL = "chaos_install"      # (fault_plan_dict,)
CHAOS_UNINSTALL = "chaos_uninstall"  # ()

# The wire envelope.  The driver buffers the fire-and-forget ops of an
# epoch and ships them as *one* broadcast,
# ``(EPOCH, first_op_id, epoch_id, ops, last_is_sync)``: ``ops`` is the
# tuple of records in issue order, and record i carries the causal
# op_id ``first_op_id + i`` (repro.obs.causal), so driver and workers
# agree on every id by construction, recovery replays included.  A
# worker runs the records in order and defers the errors of every
# record but a final sync one, which it answers with one status gather
# that carries the deferred errors along.  The envelope's few bytes are
# paid once per epoch -- the "tens of bytes" economics hold per op.  The
# tag is one letter because a one-record message (every message with
# batching off) pays the whole envelope.
EPOCH = "E"                  # (first_op_id, epoch_id, ops, last_is_sync)
