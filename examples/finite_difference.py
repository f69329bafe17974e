"""Paper section III-G: finite difference calculations on a structured grid.

The listing from the paper, verbatim (modulo problem size):

    x = odin.linspace(1, 2*pi, 10**8)
    y = odin.sin(x)
    dx = x[1] - x[0]
    dy = y[1:] - y[:-1]
    dydx = dy / dx

"The dy array above is another distributed ODIN array, and its computation
requires some small amount of inter-node communication, since it is the
subtraction of shifted array slices. The equivalent MPI code would require
several calls to communication routines, whereas here, ODIN performs this
communication automatically."

This script runs the computation, checks it against serial NumPy, and
prints the measured communication so the "small amount" claim is visible.
"""

import numpy as np

from repro import odin

N = 1_000_000
NWORKERS = 4

ctx = odin.init(nworkers=NWORKERS)

# -- the paper's listing ------------------------------------------------
x = odin.linspace(1, 2 * np.pi, N)
y = odin.sin(x)

ctx.flush()                               # run the setup ops first
ctx.reset_counters()                      # measure just the FD expression

dx = x[1] - x[0]                          # a Python scalar
dy = y[1:] - y[:-1]                       # shifted-slice subtraction
dydx = dy / dx
ctx.flush()                               # ship the epoch these ops wait in

ctl_msgs, ctl_bytes = ctx.control_traffic()
wrk_msgs, wrk_bytes = ctx.worker_traffic()

# -- check against serial NumPy ------------------------------------------
xs = np.linspace(1, 2 * np.pi, N)
ys = np.sin(xs)
ref = (ys[1:] - ys[:-1]) / (xs[1] - xs[0])
err = np.abs(dydx.gather() - ref).max()

print(f"grid points                 : {N:,}")
print(f"workers                     : {NWORKERS}")
print(f"dx (Python scalar)          : {dx:.3e}")
print(f"max |dydx - serial numpy|   : {err:.3e}")
print(f"control messages from driver: {ctl_msgs} ({ctl_bytes:,} bytes)")
print(f"worker data-plane messages  : {wrk_msgs} ({wrk_bytes:,} bytes)")
print(f"array payload               : {8 * N:,} bytes "
      f"(communication is a tiny fraction)")

assert err < 1e-12

# derivative accuracy sanity: d(sin)/dx ~ cos
mid_err = np.abs(dydx.gather() - np.cos(xs[:-1])).max()
print(f"max |dydx - cos(x)|         : {mid_err:.3e} "
      f"(first-order truncation error)")

odin.shutdown()
