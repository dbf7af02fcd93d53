"""Persistent, memory-mappable boot cache of prepared layouts.

Preprocessing (classification, relabeling, CSR/CSC splits, block
layout, reduce and phase plans) is the expensive step — every sort the
pipeline runs is O(m log m).  The store persists the *results* of those
sorts for a server's boot graph as individual ``.npy`` artifacts keyed
by a sha256 layout fingerprint of the adjacency (the same
:func:`~repro.resilience.checkpoint.state_fingerprint` helper the
checkpoint system uses), so a restarted server boots in O(load): every
array is ``np.load``-ed with ``mmap_mode="r"`` and the only recomputed
pieces are the cheap Python-loop task list and the O(m) race
proofs/certificates that :meth:`MixenEngine._prepare` would run anyway.

It is a boot cache and nothing more: a restarted server always boots
its configured graph at epoch 0, so the engines a server prepares for
later graph epochs live in memory only and are never committed here
(DESIGN 4i).

Durability model (mirrors the checkpoint writer):

* every artifact and the JSON manifest are staged to a ``*.tmp``
  sibling and ``os.replace``-d into place — a kill mid-write never
  commits a truncated file, and orphaned temporaries are swept on open
  (:func:`~repro.resilience.checkpoint.sweep_tmp_files`);
* the manifest records per-artifact sha256/shape/dtype; a missing,
  short, or bit-flipped artifact is *detected* on read and the entry is
  dropped so the caller falls back to a cold rebuild instead of
  crashing or serving garbage;
* the ``serve_store`` fault site (``corrupt:site=serve_store``) flips
  real bytes in a committed artifact before the read, so drills
  exercise the genuine detection path.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..core.bins import DynamicBinStats
from ..core.filtering import FilterPlan
from ..core.kernels import ReducePlan
from ..core.mixed_format import MixedGraph
from ..core.partition import RegularPartition, make_block_tasks
from ..errors import ServeError
from ..frameworks.base import PrepareStats
from ..frameworks.blocking import BlockLayout
from ..graphs.classify import ConnectivityClasses
from ..graphs.csr import CSR
from ..resilience import faults
from ..resilience.checkpoint import state_fingerprint, sweep_tmp_files

#: bump when the artifact schema changes; part of the fingerprint, so
#: old stores simply miss instead of loading under the wrong schema.
STORE_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: reduce-plan streams persisted per plan prefix.
_PLAN_STREAMS = (
    "src",
    "dst",
    "run_starts",
    "run_dst",
    "part_edge_ptr",
    "part_run_ptr",
)

#: layout arrays persisted per fingerprint.
_REQUIRED_ARRAYS = (
    "perm",
    "inverse",
    "cls_classes",
    "cls_hub_mask",
    "cls_counts",
    "rr_indptr",
    "rr_indices",
    "s2r_indptr",
    "s2r_indices",
    "sink_indptr",
    "sink_indices",
    "lay_src_scatter",
    "lay_dst_scatter",
    "lay_gather_perm",
    "lay_src_gather",
    "lay_dst_gather",
    "lay_scatter_block_ptr",
    "lay_gather_block_ptr",
    *(
        f"{prefix}_{name}"
        for prefix in ("rp", "push", "pull")
        for name in _PLAN_STREAMS
    ),
)


@dataclass(frozen=True)
class BootReport:
    """How one engine boot went: warm (store hit) or cold (rebuild)."""

    fingerprint: str
    #: True = layout loaded from the store (preprocessing skipped).
    hit: bool
    #: True = a committed entry existed but failed verification and was
    #: dropped (the boot then rebuilt and re-committed).
    rebuilt: bool
    seconds: float
    #: why the store missed ("absent", "corrupt artifact ...",
    #: "stale tuned config ...").
    miss_reason: str | None = None


class LayoutStore:
    """One directory of fingerprint-keyed layout artifacts.

    Parameters
    ----------
    directory:
        Store root (created if missing); orphaned ``*.tmp`` files from
        a killed writer are swept on open.
    mmap:
        Memory-map artifacts on load (read-only) instead of reading
        them into fresh arrays.
    verify:
        Check each artifact's sha256 against the manifest on load.
        Costs one streaming read per artifact but turns silent
        corruption into a detected miss; the chaos drills rely on it.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        mmap: bool = True,
        verify: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        sweep_tmp_files(self.directory)
        self.mmap = mmap
        self.verify = verify
        #: why the most recent :meth:`get` returned None.
        self.last_miss: str | None = None
        self._manifest = self._read_manifest()

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _read_manifest(self) -> dict:
        try:
            data = json.loads(self.manifest_path.read_text("utf-8"))
        except FileNotFoundError:
            return {"version": STORE_VERSION, "entries": {}}
        except (OSError, json.JSONDecodeError):
            # an unreadable ledger is a miss for every fingerprint, not
            # a crash: the next put() rewrites it atomically
            return {"version": STORE_VERSION, "entries": {}}
        if (
            not isinstance(data, dict)
            or data.get("version") != STORE_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            return {"version": STORE_VERSION, "entries": {}}
        return data

    def _write_manifest(self) -> None:
        tmp = self.manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(
            json.dumps(self._manifest, indent=2, sort_keys=True), "utf-8"
        )
        os.replace(tmp, self.manifest_path)

    def fingerprints(self) -> tuple[str, ...]:
        return tuple(sorted(self._manifest["entries"]))

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._manifest["entries"]

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def put(
        self,
        fingerprint: str,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
    ) -> None:
        """Atomically commit one layout: artifacts first, manifest last.

        A kill at any point leaves either the previous entry or the new
        one — never a manifest pointing at half-written artifacts.
        """
        missing = [n for n in _REQUIRED_ARRAYS if n not in arrays]
        if missing:
            raise ServeError(
                f"layout pack is missing required arrays: {missing}"
            )
        art_dir = self.directory / f"layout-{fingerprint[:16]}"
        art_dir.mkdir(parents=True, exist_ok=True)
        sweep_tmp_files(art_dir)
        recorded: dict[str, dict] = {}
        for name, array in sorted(arrays.items()):
            array = np.ascontiguousarray(array)
            filename = f"{name}.npy"
            tmp = art_dir / (filename + ".tmp")
            with open(tmp, "wb") as handle:
                np.save(handle, array)
            os.replace(tmp, art_dir / filename)
            recorded[name] = {
                "file": filename,
                "sha256": _file_digest(art_dir / filename),
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
        self._manifest["entries"][fingerprint] = {
            "dir": art_dir.name,
            "arrays": recorded,
            "meta": meta,
        }
        self._write_manifest()

    def drop(self, fingerprint: str) -> None:
        """Forget one entry and best-effort remove its artifacts."""
        entry = self._manifest["entries"].pop(fingerprint, None)
        if entry is None:
            return
        self._write_manifest()
        art_dir = self.directory / entry["dir"]
        for spec in entry["arrays"].values():
            try:
                (art_dir / spec["file"]).unlink()
            except OSError:
                pass
        try:
            art_dir.rmdir()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def get(
        self, fingerprint: str
    ) -> tuple[dict[str, np.ndarray], dict] | None:
        """Load one committed layout, or None (with :attr:`last_miss`
        set) when it is absent or fails verification.

        A failed verification *drops* the entry so the caller's rebuild
        immediately re-commits a clean one.
        """
        self.last_miss = None
        entry = self._manifest["entries"].get(fingerprint)
        if entry is None:
            self.last_miss = "absent"
            return None
        injector = faults.active()
        if injector is not None:
            # may raise InjectedFault (crash:site=serve_store) — the
            # boot path treats that like any other failed read
            directive = injector.serve_store()
            if directive and "corrupt" in directive:
                self._vandalize(entry)
        art_dir = self.directory / entry["dir"]
        arrays: dict[str, np.ndarray] = {}
        for name, spec in entry["arrays"].items():
            path = art_dir / spec["file"]
            problem = self._check_artifact(path, spec)
            if problem is None:
                try:
                    array = np.load(
                        path, mmap_mode="r" if self.mmap else None
                    )
                except (OSError, ValueError) as exc:
                    problem = f"unreadable ({exc})"
            if problem is None and (
                list(array.shape) != spec["shape"]
                or str(array.dtype) != spec["dtype"]
            ):
                problem = (
                    f"shape/dtype mismatch ({array.shape}, {array.dtype})"
                )
            if problem is not None:
                self.last_miss = f"corrupt artifact {name!r}: {problem}"
                self.drop(fingerprint)
                return None
            arrays[name] = array
        missing = [n for n in _REQUIRED_ARRAYS if n not in arrays]
        if missing:
            self.last_miss = f"entry missing arrays {missing}"
            self.drop(fingerprint)
            return None
        return arrays, dict(entry["meta"])

    def _check_artifact(self, path: Path, spec: dict) -> str | None:
        if not path.is_file():
            return "file missing"
        if self.verify:
            digest = _file_digest(path)
            if digest != spec["sha256"]:
                return f"digest mismatch ({digest[:12]}...)"
        return None

    def _vandalize(self, entry: dict) -> None:
        """Flip one byte in the entry's first artifact (the
        ``corrupt:site=serve_store`` directive) so the *real* detection
        path — not a simulated flag — catches it."""
        art_dir = self.directory / entry["dir"]
        for name in sorted(entry["arrays"]):
            path = art_dir / entry["arrays"][name]["file"]
            try:
                size = path.stat().st_size
                with open(path, "r+b") as handle:
                    handle.seek(size // 2)
                    byte = handle.read(1) or b"\x00"
                    handle.seek(size // 2)
                    handle.write(bytes([byte[0] ^ 0xFF]))
            except OSError:
                continue
            return


def _file_digest(path: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------- #
# engine <-> artifact conversion
# --------------------------------------------------------------------- #
def engine_fingerprint(graph, *, block_nodes: int) -> str:
    """Layout fingerprint of ``graph`` under the one layout-shaping
    option a boot takes.

    Keyed on the adjacency itself, so an updated graph can never load
    another graph's layout; kernel choice and worker counts do *not*
    participate (the same layout serves every backend).
    """
    return state_fingerprint(
        "layout-store",
        STORE_VERSION,
        graph.num_nodes,
        graph.csr.indptr,
        graph.csr.indices,
        f"block_nodes={block_nodes!r}",
    )


def pack_engine(engine) -> tuple[dict[str, np.ndarray], dict]:
    """Extract a prepared unweighted :class:`MixenEngine`'s layout as
    store artifacts + JSON-safe metadata (inverse of
    :func:`install_layout`)."""
    if engine.edge_values is not None:
        raise ServeError("the layout store holds unweighted layouts only")
    plan: FilterPlan = engine.plan
    mixed: MixedGraph = engine.mixed
    layout: BlockLayout = engine.partition.layout
    arrays: dict[str, np.ndarray] = {
        "perm": plan.perm,
        "inverse": plan.inverse,
        "cls_classes": plan.classes.classes,
        "cls_hub_mask": plan.classes.hub_mask,
        "cls_counts": plan.classes.counts,
        "rr_indptr": mixed.rr.indptr,
        "rr_indices": mixed.rr.indices,
        "s2r_indptr": mixed.seed_to_reg.indptr,
        "s2r_indices": mixed.seed_to_reg.indices,
        "sink_indptr": mixed.sink_csc.indptr,
        "sink_indices": mixed.sink_csc.indices,
        "lay_src_scatter": layout.src_scatter,
        "lay_dst_scatter": layout.dst_scatter,
        "lay_gather_perm": layout.gather_perm,
        "lay_src_gather": layout.src_gather,
        "lay_dst_gather": layout.dst_gather,
        "lay_scatter_block_ptr": layout.scatter_block_ptr,
        "lay_gather_block_ptr": layout.gather_block_ptr,
    }
    meta = {
        "num_nodes": plan.num_nodes,
        "num_hubs": plan.num_hubs,
        "num_regular": plan.num_regular,
        "num_seed": plan.num_seed,
        "num_sink": plan.num_sink,
        "num_isolated": plan.num_isolated,
        "rr_rows": mixed.rr.num_rows,
        "rr_cols": mixed.rr.num_cols,
        "s2r_rows": mixed.seed_to_reg.num_rows,
        "s2r_cols": mixed.seed_to_reg.num_cols,
        "sink_rows": mixed.sink_csc.num_rows,
        "sink_cols": mixed.sink_csc.num_cols,
        "lay_num_nodes": layout.num_nodes,
        "lay_block_nodes": layout.block_nodes,
        "lay_blocks_per_side": layout.num_blocks_per_side,
        "bin_raw": int(engine.bin_stats.raw_messages),
        "bin_compressed": int(engine.bin_stats.compressed_messages),
    }
    for prefix, reduce_plan in (
        ("rp", layout.reduce_plan),
        ("push", mixed.seed_push_plan),
        ("pull", mixed.sink_pull_plan),
    ):
        for name in _PLAN_STREAMS:
            arrays[f"{prefix}_{name}"] = getattr(reduce_plan, name)
        meta[f"{prefix}_name"] = reduce_plan.name
        meta[f"{prefix}_num_rows"] = reduce_plan.num_rows
    return arrays, meta


def _install_plan(arrays: dict, meta: dict, prefix: str) -> ReducePlan:
    """Rebuild one reduce plan from its store artifacts (no sort)."""
    return ReducePlan(
        name=meta[f"{prefix}_name"],
        num_rows=int(meta[f"{prefix}_num_rows"]),
        **{name: arrays[f"{prefix}_{name}"] for name in _PLAN_STREAMS},
    )


def install_layout(engine, arrays: dict, meta: dict) -> None:
    """Rebuild a :class:`MixenEngine`'s prepared structures from store
    artifacts *without re-running any O(m log m) sort*.

    Only the cheap task list (under the engine's own ``balance`` and
    ``max_load_factor``), the O(m) plan proofs and the layout
    certificate are recomputed — exactly the non-sort tail of
    ``_prepare()`` — and the cached reduce plans are installed via the
    ``cached_property`` instance dict, so frozen dataclasses stay
    frozen.
    """
    classes = ConnectivityClasses(
        classes=np.asarray(arrays["cls_classes"]),
        hub_mask=np.asarray(arrays["cls_hub_mask"]),
        counts=np.asarray(arrays["cls_counts"]),
    )
    plan = FilterPlan(
        perm=arrays["perm"],
        inverse=arrays["inverse"],
        num_nodes=int(meta["num_nodes"]),
        num_hubs=int(meta["num_hubs"]),
        num_regular=int(meta["num_regular"]),
        num_seed=int(meta["num_seed"]),
        num_sink=int(meta["num_sink"]),
        num_isolated=int(meta["num_isolated"]),
        classes=classes,
    )
    rr = CSR(
        int(meta["rr_rows"]),
        int(meta["rr_cols"]),
        arrays["rr_indptr"],
        arrays["rr_indices"],
    )
    s2r = CSR(
        int(meta["s2r_rows"]),
        int(meta["s2r_cols"]),
        arrays["s2r_indptr"],
        arrays["s2r_indices"],
    )
    sink = CSR(
        int(meta["sink_rows"]),
        int(meta["sink_cols"]),
        arrays["sink_indptr"],
        arrays["sink_indices"],
    )
    mixed = MixedGraph(plan, rr, s2r, sink)
    mixed.__dict__["seed_push_plan"] = _install_plan(arrays, meta, "push")
    mixed.__dict__["sink_pull_plan"] = _install_plan(arrays, meta, "pull")
    layout = BlockLayout(
        num_nodes=int(meta["lay_num_nodes"]),
        block_nodes=int(meta["lay_block_nodes"]),
        num_blocks_per_side=int(meta["lay_blocks_per_side"]),
        src_scatter=arrays["lay_src_scatter"],
        dst_scatter=arrays["lay_dst_scatter"],
        gather_perm=arrays["lay_gather_perm"],
        src_gather=arrays["lay_src_gather"],
        dst_gather=arrays["lay_dst_gather"],
        scatter_block_ptr=arrays["lay_scatter_block_ptr"],
        gather_block_ptr=arrays["lay_gather_block_ptr"],
    )
    layout.__dict__["reduce_plan"] = _install_plan(arrays, meta, "rp")
    tasks = make_block_tasks(
        layout,
        balance=engine.balance,
        max_load_factor=engine.max_load_factor,
    )
    partition = RegularPartition(
        layout, tasks, engine.balance, engine.max_load_factor
    )

    engine.plan = plan
    engine.mixed = mixed
    engine.partition = partition
    engine.bin_stats = DynamicBinStats(
        int(meta["bin_raw"]), int(meta["bin_compressed"])
    )
    engine._prove_plans()


def boot_engine(
    graph,
    store: LayoutStore,
    *,
    kernel: str = "reduceat",
    max_workers: int | None = None,
    block_nodes: int = 512,
    tuned=None,
):
    """Boot a :class:`MixenEngine` through ``store``: warm when the
    fingerprinted layout is committed and verifies, cold (build then
    commit) otherwise.  Never raises on store trouble — a corrupt or
    crashing store read degrades to the cold path.

    The store caches boot layouts only: a server prepares the engines
    of later epochs in memory and never writes them here, and an entry
    is keyed on the adjacency, so a graph an update stream returned to
    its boot content still boots warm.

    ``tuned`` (a :class:`~repro.tuning.TunedConfig` or ``None``)
    records the tuned-config blob the boot was configured from in the
    manifest; a committed layout whose recorded blob id differs from
    the offered one is refused and rebuilt, so retuning can never
    warm-boot into a pre-retune layout.

    Returns ``(engine, BootReport)``.
    """
    from ..core.engine import MixenEngine
    from ..errors import InjectedFault

    fingerprint = engine_fingerprint(graph, block_nodes=block_nodes)
    t0 = time.perf_counter()
    engine = MixenEngine(
        graph,
        block_nodes=block_nodes,
        kernel=kernel,
        max_workers=max_workers,
    )
    try:
        loaded = store.get(fingerprint)
        miss_reason = store.last_miss
    except InjectedFault as exc:
        loaded = None
        miss_reason = f"store read failed: {exc}"
    tuned_id = "" if tuned is None else str(tuned.blob_id)
    if loaded is not None:
        arrays, meta = loaded
        saved_tuned = str(meta.get("tuned_id", ""))
        if saved_tuned == tuned_id:
            install_layout(engine, arrays, meta)
            seconds = time.perf_counter() - t0
            engine.prepare_stats = PrepareStats(
                seconds, {"store-load": seconds}
            )
            engine.prepared = True
            return engine, BootReport(fingerprint, True, False, seconds)
        # stale tuned config: the layout was committed under a
        # different (or no) tuning blob — reject and rebuild
        miss_reason = (
            f"stale tuned config {saved_tuned[:12] or '<none>'} != "
            f"{tuned_id[:12] or '<none>'}"
        )
        store.drop(fingerprint)
    rebuilt = miss_reason is not None and miss_reason != "absent"
    engine.prepare()
    arrays, meta = pack_engine(engine)
    meta["tuned_id"] = tuned_id
    store.put(fingerprint, arrays, meta)
    seconds = time.perf_counter() - t0
    return engine, BootReport(
        fingerprint, False, rebuilt, seconds, miss_reason
    )
