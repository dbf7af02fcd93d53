"""Profile-driven auto-tuner: choose the node ordering per graph.

The paper always applies its own filter; Section 5 says the layout
should instead follow the structural profile.  This module sweeps every
registered reordering (plus ``"none"``, the untuned identity) through
the *modeled* Figure 6/7 cost at the model's default block of
:data:`DEFAULT_BLOCK_NODES` — one traced Scatter-Cache-Gather iteration,
the same for every ``--kernel``, through the simulated memory hierarchy
divided by the parallel-schedule efficiency (:mod:`repro.bench.experiments`)
— and emits a versioned, graph-fingerprinted JSON blob recording the
winner.  Block size is not a choice: the executed ``bincount`` kernel
reads only the destination-major plan, whose order does not depend on
it, so it stays the Figure 6/7 model knob.

No wall-clock measurement is involved, so tuning is deterministic: the
same graph always produces byte-identical blobs, the identity is always
among the candidates (the tuned choice can never be modeled-slower than
the default), and ties resolve to the earliest candidate in sweep order
(``"none"`` first).

Consumption: ``python -m repro tune`` writes the blob; ``run``/``bfs``/
``sssp --tuned <path>`` apply its ordering (an explicit ``--reorder``
wins).
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

#: tuned-config schema version; a bump invalidates every existing blob
#: (version 2 dropped the block-size choice).
TUNE_VERSION = 2

#: the identity ordering (the untuned baseline every sweep includes).
DEFAULT_REORDER = "none"

#: the block size the model traces every candidate at (the paper's
#: Section 6 default).
DEFAULT_BLOCK_NODES = 512


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


def modeled_iteration_cycles(graph: Graph) -> float:
    """Modeled parallel cycles of one Main-Phase iteration (Fig 6/7) at
    :data:`DEFAULT_BLOCK_NODES`."""
    from ..bench.experiments import _modeled_parallel_cycles, _prepared
    from ..core.perfmodel import iteration_counters

    engine = _prepared("mixen", graph, block_nodes=DEFAULT_BLOCK_NODES)
    return _modeled_parallel_cycles(iteration_counters(engine), engine)


@dataclass(frozen=True)
class TunedConfig:
    """One graph's tuned configuration plus the evidence behind it."""

    graph_name: str
    fingerprint: str  #: adjacency fingerprint (:func:`graph_fingerprint`)
    profile: StructuralProfile
    reorder: str  #: chosen ordering (a REORDERINGS key or ``"none"``)
    version: int = TUNE_VERSION
    #: modeled cycles of the chosen configuration.
    tuned_cycles: float = 0.0
    #: modeled cycles of the untuned default (``"none"``).
    default_cycles: float = 0.0
    #: full sweep evidence: ``"<ordering>" -> cycles``.
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
            "choice": {"reorder": self.reorder},
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
) -> TunedConfig:
    """Sweep the orderings and return the tuned choice.

    The untuned default (``"none"``) always participates, so the winner
    is modeled-no-slower than the default by construction.  Strict
    ``<`` comparison keeps the earliest candidate on ties, making the
    choice deterministic for a fixed fingerprint.
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
    if DEFAULT_REORDER not in orderings:
        orderings = (DEFAULT_REORDER, *orderings)
    sweep: dict[str, float] = {}
    best = DEFAULT_REORDER
    best_cycles = float("inf")
    for oname in orderings:
        candidate, _ = apply_reordering(graph, oname)
        cycles = modeled_iteration_cycles(candidate)
        sweep[oname] = cycles
        if cycles < best_cycles:
            best, best_cycles = oname, cycles
    return TunedConfig(
        graph_name=name or graph.name or "<unnamed>",
        fingerprint=graph_fingerprint(graph),
        profile=StructuralProfile.from_graph(graph),
        reorder=best,
        tuned_cycles=best_cycles,
        default_cycles=sweep[DEFAULT_REORDER],
        sweep=sweep,
    )
