"""Fig. 1 reproduction tests: the ODIN process is a control plane only.

Paper claims measured here:
- creation messages are "short message[s], at most tens of bytes" of
  payload (opcode + distribution descriptor);
- "very little to no array data is associated with them";
- workers communicate "directly with each other, bypassing the ODIN
  process" for data movement.
"""

import numpy as np
import pytest

from repro import odin
from repro.odin.context import OdinContext
from tests.conftest import settle_counters


class TestControlPlane:
    def test_creation_is_control_only(self):
        with OdinContext(4) as ctx:
            settle_counters(ctx)
            _x = odin.random(10 ** 6, ctx=ctx)   # 8 MB of array data
            _msgs, ctl_bytes = ctx.control_traffic()
            assert ctl_bytes < 5_000          # description, not data
            # worker-to-worker traffic is only the relayed broadcast tree
            # (hundreds of bytes), never the 8 MB payload
            _wmsgs, relay_bytes = ctx.worker_traffic()
            assert relay_bytes < 5_000

    def test_control_bytes_independent_of_array_size(self):
        sizes = {}
        for n in (10 ** 3, 10 ** 5):
            with OdinContext(4) as ctx:
                settle_counters(ctx)
                _x = odin.zeros(n, ctx=ctx)
                _m, b = ctx.control_traffic()
                sizes[n] = b
        # descriptor size is O(1) in the array size (pickle encodes the
        # larger integers in a couple more bytes, nothing else changes)
        assert abs(sizes[10 ** 3] - sizes[10 ** 5]) < 64

    def test_redistribution_bypasses_driver(self):
        with OdinContext(4) as ctx:
            x = odin.arange(40_000, ctx=ctx, dtype=np.float64)
            settle_counters(ctx)
            _y = x.redistribute(odin.CyclicDistribution((40_000,), 0, 4))
            ctx.flush()  # batched op: synchronize before reading counters
            _cmsgs, ctl_bytes = ctx.control_traffic()
            _wmsgs, data_bytes = ctx.worker_traffic()
            # the payload went worker-to-worker, dwarfing the control op
            assert data_bytes > 100 * ctl_bytes

    def test_ufunc_on_conformable_arrays_moves_no_data(self):
        with OdinContext(4) as ctx:
            a = odin.random(10_000, ctx=ctx)
            b = odin.random(10_000, ctx=ctx)
            settle_counters(ctx)
            _c = a * b
            _wmsgs, relay_bytes = ctx.worker_traffic()
            # conformable operands: only the broadcast relay, no payload
            assert relay_bytes < 1_000

    def test_driver_relay_ratio_for_fd_stencil(self):
        """The paper's finite-difference expression: control traffic stays
        a tiny fraction of the payload size."""
        n = 100_000
        with OdinContext(4) as ctx:
            x = odin.linspace(0, 1, n, ctx=ctx)
            y = odin.sin(x)
            settle_counters(ctx)
            _dydx = (y[1:] - y[:-1]) / (x[1] - x[0])
            _c, ctl_bytes = ctx.control_traffic()
            payload = 8 * n
            assert ctl_bytes < payload / 50
