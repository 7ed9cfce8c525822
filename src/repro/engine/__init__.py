"""Backend-selecting batch-execution engine.

The paper closes with multi-core batch processing as future work; this
package routes each batch to serial execution or the thread pool of
:mod:`repro.core.parallel` — behind the same ``execute()`` contract the
batching service already consumes.

See ``docs/parallelism.md`` for the backend decision matrix.
"""

from repro.engine.engine import BACKENDS, ExecutionEngine

__all__ = ["BACKENDS", "ExecutionEngine"]
