"""Seamless-backed loop fusion kernels (the Fig. 2 ODIN->Seamless edge).

A fused postfix program is compiled once into a single native elementwise
loop via :func:`repro.seamless.compile_elementwise`, then applied to each
worker's local blocks -- true loop fusion with no intermediate temporaries,
which is the paper's promise for ODIN expression optimization.

When no C compiler is available, the program uses an op without a C
mapping, or the compile or load fails, the caller falls back to the NumPy
stack machine in :mod:`repro.odin.worker`; each fallback records an
``odin.fusion``/``fallback`` instant and counts ``odin.fusion.fallbacks``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..trace import TRACER as _TR

__all__ = ["compiled_kernel"]

_cache: Dict[Tuple, Optional[Callable]] = {}
_lock = threading.Lock()


def compiled_kernel(program: Tuple[tuple, ...],
                    n_inputs: int) -> Optional[Callable]:
    """A callable ``kernel(blocks) -> ndarray`` for a fused program,
    or None when native compilation is unavailable."""
    key = (program, n_inputs)
    with _lock:
        if key in _cache:
            return _cache[key]
        kernel = _build(program, n_inputs)
        _cache[key] = kernel
        return kernel


def _build(program, n_inputs: int) -> Optional[Callable]:
    from ..seamless import compile_elementwise
    try:
        fn = compile_elementwise(program, n_inputs)
        reason = "no compiler"
    # an op without a C mapping, a failed compile, a failed load
    except (ValueError, RuntimeError, OSError) as exc:
        fn, reason = None, repr(exc)
    if fn is None:
        if _TR.recording:
            _TR.instant("odin.fusion", "fallback", reason=reason)
        return None

    def kernel(blocks: List[np.ndarray]) -> np.ndarray:
        out = np.empty(blocks[0].shape)
        fn(out.reshape(-1), *(b.reshape(-1) for b in blocks))
        return out

    return kernel
