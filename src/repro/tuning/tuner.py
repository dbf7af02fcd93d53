"""Profile-driven auto-tuner: choose reordering and block size per graph.

The paper fixes ``block_nodes = 512`` and always applies its own filter;
Section 5 says both knobs should instead follow the structural profile.
This module sweeps every registered reordering (plus ``"none"``, the
untuned identity) crossed with a block-size candidate list through the
*modeled* Figure 6/7 cost — one traced Scatter-Cache-Gather iteration,
the same for every ``--kernel``, through the simulated memory hierarchy
divided by the parallel-schedule efficiency (:mod:`repro.bench.experiments`)
— and emits a versioned, graph-fingerprinted JSON blob recording the
winner; the blob names no kernel.

No wall-clock measurement is involved, so tuning is deterministic: the
same graph always produces byte-identical blobs, the default
configuration is always among the candidates (the tuned choice can
never be modeled-slower than the default), and ties resolve to the
earliest candidate in sweep order (``"none"`` first, block sizes
ascending).

Consumption: ``python -m repro tune`` writes the blob; ``run``/``bfs``/
``sssp``/``serve --tuned <path>`` apply it (explicit flags win);
:func:`repro.serve.store.boot_engine` records the blob id in layout
manifests and refuses to warm-boot a layout committed under another
blob.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import TuningError
from ..graphs.graph import Graph
from ..graphs.reorder import REORDERINGS
from .profile import StructuralProfile, graph_fingerprint

#: tuned-config schema version; a bump invalidates every existing blob.
TUNE_VERSION = 1

#: the identity ordering (the untuned baseline every sweep includes).
DEFAULT_REORDER = "none"

#: the untuned block size (the paper's Section 6 default).
DEFAULT_BLOCK_NODES = 512

#: block-size candidates: powers of two around the L1/L2 node capacities
#: of the scaled machine (the Figure 6 sweet-spot range).
CANDIDATE_BLOCK_NODES = (128, 256, 512, 1024, 2048)

def candidate_orderings() -> tuple[str, ...]:
    """Sweep order: the identity first, then the registry sorted."""
    return (DEFAULT_REORDER, *sorted(REORDERINGS))


def apply_reordering(
    graph: Graph, name: str
) -> tuple[Graph, np.ndarray | None]:
    """Relabel ``graph`` by strategy ``name`` (``"none"`` = identity).

    Returns ``(graph, perm)`` with ``perm is None`` for the identity, so
    callers know whether scores need mapping back to original ids.
    """
    if name == DEFAULT_REORDER:
        return graph, None
    try:
        strategy = REORDERINGS[name]
    except KeyError:
        raise TuningError(
            f"unknown reordering {name!r}; registered: "
            f"{', '.join(candidate_orderings())}"
        ) from None
    perm = strategy(graph)
    return graph.relabeled(perm), perm


def modeled_iteration_cycles(graph: Graph, *, block_nodes: int) -> float:
    """Modeled parallel cycles of one Main-Phase iteration (Fig 6/7)."""
    from ..bench.experiments import _modeled_parallel_cycles, _traced_counters

    counters, engine = _traced_counters(
        "mixen", graph, block_nodes=block_nodes
    )
    return _modeled_parallel_cycles(counters, engine)


@dataclass(frozen=True)
class TunedConfig:
    """One graph's tuned configuration plus the evidence behind it."""

    graph_name: str
    fingerprint: str  #: adjacency fingerprint (:func:`graph_fingerprint`)
    profile: StructuralProfile
    reorder: str  #: chosen ordering (a REORDERINGS key or ``"none"``)
    block_nodes: int
    version: int = TUNE_VERSION
    #: modeled cycles of the chosen configuration.
    tuned_cycles: float = 0.0
    #: modeled cycles of the untuned default (none @ 512).
    default_cycles: float = 0.0
    #: full sweep evidence: ``"<ordering>:<block_nodes>" -> cycles``.
    sweep: dict = field(default_factory=dict)

    @property
    def blob_id(self) -> str:
        """Content-addressed id of the blob (sha256, no timestamps)."""
        payload = json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def gain(self) -> float:
        """Modeled default/tuned cycle ratio (>= 1.0 by construction)."""
        return (
            self.default_cycles / self.tuned_cycles
            if self.tuned_cycles
            else 1.0
        )

    def to_json(self) -> dict:
        """JSON-safe payload (stable key order via ``json.dumps``)."""
        return {
            "version": self.version,
            "graph": {
                "name": self.graph_name,
                "fingerprint": self.fingerprint,
            },
            "profile": self.profile.to_json(),
            "choice": {
                "reorder": self.reorder,
                "block_nodes": self.block_nodes,
            },
            "modeled_cycles": {
                "tuned": self.tuned_cycles,
                "default": self.default_cycles,
            },
            "sweep": dict(sorted(self.sweep.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TunedConfig":
        """Parse a blob payload; raises :class:`TuningError` on schema
        drift or malformed content."""
        try:
            version = int(payload["version"])
            if version != TUNE_VERSION:
                raise TuningError(
                    f"tuned config version {version} != {TUNE_VERSION}; "
                    "re-run 'python -m repro tune'"
                )
            return cls(
                graph_name=str(payload["graph"]["name"]),
                fingerprint=str(payload["graph"]["fingerprint"]),
                profile=StructuralProfile.from_json(payload["profile"]),
                reorder=str(payload["choice"]["reorder"]),
                block_nodes=int(payload["choice"]["block_nodes"]),
                version=version,
                tuned_cycles=float(payload["modeled_cycles"]["tuned"]),
                default_cycles=float(payload["modeled_cycles"]["default"]),
                sweep=dict(payload.get("sweep", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuningError(f"malformed tuned config: {exc}") from None

    def save(self, path: str | os.PathLike) -> Path:
        """Atomically write the blob (tmp-and-rename, like checkpoints)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    def check_graph(self, graph: Graph) -> None:
        """Refuse a blob minted for a different adjacency (the tuning
        analogue of the stale-epoch checkpoint refusal)."""
        actual = graph_fingerprint(graph)
        if actual != self.fingerprint:
            raise TuningError(
                f"tuned config was computed for graph "
                f"{self.graph_name!r} ({self.fingerprint[:12]}...), not "
                f"this graph ({actual[:12]}...); re-run "
                "'python -m repro tune'",
                blob_fingerprint=self.fingerprint,
                graph_fingerprint=actual,
            )


def load_tuned(
    path: str | os.PathLike, *, graph: Graph | None = None
) -> TunedConfig:
    """Load a tuned-config blob; with ``graph``, also verify that the
    blob was minted for exactly that adjacency."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise TuningError(f"tuned config {path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise TuningError(
            f"tuned config {path} is unreadable: {exc}"
        ) from None
    config = TunedConfig.from_json(payload)
    if graph is not None:
        config.check_graph(graph)
    return config


def tune_graph(
    graph: Graph,
    *,
    name: str | None = None,
    orderings: tuple[str, ...] | None = None,
    block_sweep: tuple[int, ...] = CANDIDATE_BLOCK_NODES,
) -> TunedConfig:
    """Sweep orderings x block sizes and return the tuned choice.

    The untuned default (``none`` @ :data:`DEFAULT_BLOCK_NODES`) always
    participates, so the winner is modeled-no-slower than the default by
    construction.  Strict ``<`` comparison keeps the earliest candidate
    on ties, making the choice deterministic for a fixed fingerprint.
    """
    if orderings is None:
        orderings = candidate_orderings()
    unknown = [
        o for o in orderings if o != DEFAULT_REORDER and o not in REORDERINGS
    ]
    if unknown:
        raise TuningError(
            f"unknown reordering(s) {unknown}; registered: "
            f"{', '.join(candidate_orderings())}"
        )
    block_sweep = tuple(int(c) for c in block_sweep)
    if any(c <= 0 for c in block_sweep):
        raise TuningError(f"block sizes must be positive: {block_sweep}")
    if DEFAULT_REORDER not in orderings:
        orderings = (DEFAULT_REORDER, *orderings)
    if DEFAULT_BLOCK_NODES not in block_sweep:
        block_sweep = tuple(sorted({*block_sweep, DEFAULT_BLOCK_NODES}))
    sweep: dict[str, float] = {}
    best: tuple[str, int] | None = None
    best_cycles = float("inf")
    for oname in orderings:
        candidate, _ = apply_reordering(graph, oname)
        for c in block_sweep:
            cycles = modeled_iteration_cycles(candidate, block_nodes=c)
            sweep[f"{oname}:{c}"] = cycles
            if cycles < best_cycles:
                best, best_cycles = (oname, c), cycles
    assert best is not None
    return TunedConfig(
        graph_name=name or graph.name or "<unnamed>",
        fingerprint=graph_fingerprint(graph),
        profile=StructuralProfile.from_graph(graph),
        reorder=best[0],
        block_nodes=best[1],
        tuned_cycles=best_cycles,
        default_cycles=sweep[f"{DEFAULT_REORDER}:{DEFAULT_BLOCK_NODES}"],
        sweep=sweep,
    )
