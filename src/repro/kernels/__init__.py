"""repro.kernels — compiled hot-path kernels with a NumPy fallback.

The GIL-bound inner loops left under the batch strategies (the ids
scatter of :meth:`~repro.core.result.BatchResult.merge` and the
XOR-checksum fold of per-query id segments) compiled to nogil machine
code via Numba — an **optional** dependency (the
``compiled`` install extra).  When ``numba`` is absent, a
behaviour-identical pure-NumPy implementation is selected at import
time; nothing else in the repository changes, and the differential
tests hold the two backends to identical results.

Layout:

:mod:`repro.kernels.ops`
    Backend selection (import-time), argument normalization and
    invocation counters.
:mod:`repro.kernels.fallback`
    The pure-NumPy contract implementation.
:mod:`repro.kernels.jit`
    The ``@njit(nogil=True, cache=True)`` twins (import requires
    numba).
:mod:`repro.kernels.compiled`
    :func:`~repro.kernels.compiled.compiled_run`, the retired compiled
    path's entry point, now :func:`~repro.core.strategies.run_strategy`
    under another name.

Environment switches: ``REPRO_NO_NUMBA=1`` or ``REPRO_KERNELS=numpy``
force the fallback even when numba is installed (the no-numba CI leg);
``REPRO_KERNELS=numba`` makes a silent fallback an import error.
See ``docs/kernels.md``.
"""

from repro.kernels.ops import (
    KERNELS,
    fallback_active,
    force_backend,
    invocation_counts,
    jit_available,
    kernel_backend,
)

__all__ = [
    "KERNELS",
    "fallback_active",
    "force_backend",
    "invocation_counts",
    "jit_available",
    "kernel_backend",
]
