"""Mixen-as-a-service: persistent layout store + batched query server.

* :mod:`repro.serve.store` — fingerprint-keyed, memory-mappable layout
  artifacts with an atomic manifest; warm boots skip every
  preprocessing sort.
* :mod:`repro.serve.batcher` — rank-K batched personalized PageRank
  (bitwise identical per column to rank-1 reference runs).
* :mod:`repro.serve.server` — asyncio front-end with admission
  control, deadlines, a batch-level degradation ladder and a
  circuit breaker.
* :mod:`repro.serve.drill` — deterministic chaos drills (query-only
  and update-stream) with offline bit-identity verification.
* :mod:`repro.serve.protocol` — JSON-lines unix-socket protocol
  (``repro serve --socket`` / ``repro query``).
"""

from .batcher import (
    REFERENCE_KERNELS,
    BatchedPersonalizedPageRank,
    QueryRequest,
    QueryResult,
    scores_digest,
)
from .drill import (
    DrillMismatch,
    DrillReport,
    UpdateDrillReport,
    ensure_warm,
    run_drill,
    run_update_drill,
    seeded_requests,
    verify_offline,
)
from .protocol import request, serve_socket
from .server import MixenServer, ServeConfig, ServeReport
from .store import (
    BootReport,
    LayoutStore,
    boot_engine,
    engine_fingerprint,
    install_layout,
    pack_engine,
)

__all__ = [
    "REFERENCE_KERNELS",
    "BatchedPersonalizedPageRank",
    "QueryRequest",
    "QueryResult",
    "scores_digest",
    "DrillMismatch",
    "DrillReport",
    "UpdateDrillReport",
    "ensure_warm",
    "run_drill",
    "run_update_drill",
    "seeded_requests",
    "verify_offline",
    "request",
    "serve_socket",
    "MixenServer",
    "ServeConfig",
    "ServeReport",
    "BootReport",
    "LayoutStore",
    "boot_engine",
    "engine_fingerprint",
    "install_layout",
    "pack_engine",
]
