"""Unified plan certifier and proof-certificate ledger.

Every kernel rung runs a :class:`~repro.core.kernels.ReducePlan` by its
partitions, and :func:`repro.analysis.races.prove_schedule` proves a
plan race-free for all of them at once.  This module turns that proof
into a durable **certificate**:

* a :class:`Certificate` packages one successful plan proof — race-freedom
  plus deterministic reduce order for one *structure* (the Main-Phase
  plan of a block layout, or a Pre/Post-Phase plan) under one *backend*
  — keyed by the plan's content fingerprint (the same fingerprint the
  shm plan cache uses, so a certificate and the plan it certifies can
  never drift apart);
* the ``certificate_id`` is content-addressed: a SHA-256 over the
  canonical JSON of ``(version, kind, structure, backend, fingerprint,
  evidence)``.  Re-proving the same structure always reproduces the same
  id — no timestamps, no machine state;
* a :class:`CertificateLedger` persists certificates like checkpoints:
  atomic tmp-and-rename JSON keyed ``kind:backend:fingerprint``.  The
  committed ledger (``bench_results/certificates.json``) is CI's ground
  truth: ``python -m repro prove`` recomputes every certificate in the
  test matrix and fails with :class:`~repro.errors.ProofError` on any
  *uncertified* (missing) or *stale* (id mismatch) entry;
* engines attach their schedule's ``certificate_id`` to every
  :class:`~repro.frameworks.base.AlgorithmResult`, so a result can be
  traced back to the exact proof its bit-identity claim rests on.

The module also hosts the static **registry exhaustiveness checks** —
the ``--fault-inject`` grammar against :mod:`repro.resilience.faults`,
the typed exit codes against the CLI docs, the ``StateSpec`` bundle
names against the checkpoint v2 schema, and the
:data:`~repro.graphs.reorder.REORDERINGS` registry against adversarial
probe graphs and the auto-tuner's candidate space — plus
:func:`run_prove`, the driver behind ``python -m repro prove`` and
``analyze --certify``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

from ..errors import ProofError, ResilienceError
from .contracts import Check
from .dataflow import Finding, GraphCapacity, prove_numeric_safety

#: certificate schema version (bumped when the payload shape changes;
#: a bump invalidates every committed certificate by construction).
CERTIFICATE_VERSION = 2

#: default on-disk ledger location (committed; CI verifies against it).
DEFAULT_LEDGER = "bench_results/certificates.json"

#: the kernel backends every structure is certified under.
CERTIFIED_BACKENDS = ("bincount", "reduceat", "parallel", "parallel-mp")

#: certificate kind (one plan type, one kind).
REDUCE_PLAN = "reduce-plan"

#: npz keys the checkpoint v2 schema reserves for its own metadata; a
#: ``StateSpec`` name colliding with one would be ambiguous in reports
#: and v1-compat reads even though the ``state_`` prefix disambiguates
#: the archive itself.
RESERVED_STATE_KEYS = frozenset(
    {"version", "names", "iteration", "fingerprint", "epoch"}
)

#: :class:`~repro.resilience.faults.FaultInjector` hooks the kernels
#: and the serving layer must call (the fault *sites* of the
#: ``--fault-inject`` grammar).
FAULT_SITE_HOOKS = (
    "kernel_call",
    "parallel_call",
    "task_event",
    "worker_directive",
    "corrupt_bins",
    "serve_admit",
    "serve_batch",
    "serve_store",
    "update_apply",
    "update_patch",
)


# --------------------------------------------------------------------- #
# certificates
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Certificate:
    """One machine-readable proof certificate.

    ``evidence`` is the JSON-serializable dump of the underlying
    :class:`~repro.analysis.races.PlanProof`.
    """

    kind: str  # reduce-plan
    structure: str  # human-readable structure name (e.g. "mixen-main")
    backend: str
    fingerprint: str
    evidence: dict
    version: int = CERTIFICATE_VERSION
    #: graph epoch the certified structure was built at (DESIGN 4i) —
    #: part of the content-addressed id, so a certificate minted
    #: against an older edge set can never vouch for a newer layout.
    epoch: int = 0

    @property
    def key(self) -> str:
        """Ledger key: ``kind:backend:fingerprint``."""
        return f"{self.kind}:{self.backend}:{self.fingerprint}"

    @property
    def certificate_id(self) -> str:
        """Content-addressed id (SHA-256 of the canonical payload)."""
        payload = json.dumps(
            {
                "version": self.version,
                "kind": self.kind,
                "structure": self.structure,
                "backend": self.backend,
                "fingerprint": self.fingerprint,
                "epoch": self.epoch,
                "evidence": self.evidence,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _proof_evidence(proof: Any) -> dict:
    """JSON-safe evidence dict of one proof record."""
    record = {"proof": type(proof).__name__}
    record.update(asdict(proof))
    # Canonicalize containers the way json will serialize them, so the
    # certificate id is identical whether the evidence was freshly
    # computed (tuples) or reloaded from the ledger (lists).
    return json.loads(json.dumps(record))


def certify_plan(
    plan: Any,
    backend: str,
    *,
    structure: str | None = None,
    proof: Any = None,
) -> Certificate:
    """Prove and certify one reduce plan under one backend.

    Every rung runs the same partitions, so one
    :func:`~repro.analysis.races.prove_schedule` proof — the caller's
    ``proof`` of the same plan when given — is the evidence for all of
    them.  ``structure`` defaults to the plan's name.
    """
    from ..parallel.procpool import plan_fingerprint
    from .races import prove_schedule

    if proof is None:
        proof = prove_schedule(plan)
    return Certificate(
        kind=REDUCE_PLAN,
        structure=plan.name if structure is None else structure,
        backend=backend,
        fingerprint=plan_fingerprint(plan),
        evidence=_proof_evidence(proof),
    )


def certify_layout(
    layout: Any,
    backend: str,
    *,
    structure: str = "main",
    proof: Any = None,
) -> Certificate:
    """Certify a block layout's Main-Phase plan (the engines'
    prepare-time call)."""
    return certify_plan(
        layout.reduce_plan, backend, structure=structure, proof=proof
    )


def prove_and_certify(
    layout: Any,
    backend: str,
    *,
    structure: str,
    side_plans: tuple = (),
    race_check: bool | None = None,
) -> tuple:
    """The blocked engines' prepare-time proof step: prove the layout's
    Main-Phase plan and every ``side_plans`` plan race-free, replay them
    all when ``race_check`` (or, when it is ``None``,
    ``REPRO_RACE_CHECK``) asks for it, and certify the Main-Phase plan.

    O(m) vectorized checks, always on.  Returns ``(proof, certificate)``.
    :func:`~repro.analysis.races.prove_schedule` and
    :func:`certify_layout` are looked up on their modules at call time,
    so wrappers installed there see every call.
    """
    from . import races

    plans = (layout.reduce_plan, *side_plans)
    proof = races.prove_schedule(plans[0])
    for plan in plans[1:]:
        races.prove_schedule(plan)
    if race_check or (race_check is None and races.race_check_enabled()):
        for plan in plans:
            races.replay_plan(plan)
    certificate = certify_layout(
        layout, backend, structure=structure, proof=proof
    )
    return proof, certificate


# --------------------------------------------------------------------- #
# the ledger
# --------------------------------------------------------------------- #
class CertificateLedger:
    """Fingerprint-keyed certificate store (atomic JSON, like
    checkpoints: write to a tmp file, then ``os.replace``)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.entries: dict[str, dict] = {}

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CertificateLedger":
        """Read a ledger (missing file = empty ledger)."""
        ledger = cls(path)
        if ledger.path.exists():
            try:
                data = json.loads(ledger.path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ProofError(
                    f"certificate ledger {ledger.path} is unreadable: "
                    f"{exc}"
                ) from None
            entries = data.get("entries")
            if not isinstance(entries, dict):
                raise ProofError(
                    f"certificate ledger {ledger.path} has no 'entries' "
                    "table"
                )
            ledger.entries = entries
        return ledger

    def record(self, cert: Certificate) -> str:
        """Insert/replace ``cert``'s entry; returns its key."""
        self.entries[cert.key] = {
            "certificate_id": cert.certificate_id,
            "version": cert.version,
            "kind": cert.kind,
            "structure": cert.structure,
            "backend": cert.backend,
            "fingerprint": cert.fingerprint,
            "epoch": cert.epoch,
            "evidence": cert.evidence,
        }
        return cert.key

    def verify(self, cert: Certificate) -> str:
        """``verified`` | ``uncertified`` (no entry) | ``stale`` (entry
        exists but its id disagrees with the recomputed proof)."""
        entry = self.entries.get(cert.key)
        if entry is None:
            return "uncertified"
        if entry.get("certificate_id") != cert.certificate_id:
            return "stale"
        return "verified"

    def save(self) -> Path:
        """Atomically persist the ledger; returns its path."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "version": CERTIFICATE_VERSION,
                "entries": dict(sorted(self.entries.items())),
            },
            indent=2,
            sort_keys=True,
        )
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        return self.path


# --------------------------------------------------------------------- #
# registry exhaustiveness checks
# --------------------------------------------------------------------- #
def _package_files(root: str | os.PathLike | None = None) -> Iterator[Path]:
    base = (
        Path(root) if root is not None else Path(__file__).resolve().parents[1]
    )
    yield from sorted(base.rglob("*.py"))


def _kind_literals(tree: ast.AST) -> set[str]:
    """String literals compared against a ``.kind`` attribute."""
    literals: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not (
            isinstance(node.left, ast.Attribute)
            and node.left.attr == "kind"
        ):
            continue
        for comparator in node.comparators:
            if isinstance(comparator, ast.Constant) and isinstance(
                comparator.value, str
            ):
                literals.add(comparator.value)
            elif isinstance(comparator, (ast.Tuple, ast.Set, ast.List)):
                literals.update(
                    elt.value
                    for elt in comparator.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
    return literals


#: a minimal parseable ``--fault-inject`` entry per kind (the required
#: fields :class:`~repro.resilience.faults.FaultSpec` enforces).
_MINIMAL_SPECS = {
    "crash": "crash:task=0",
    "corrupt": "corrupt:slot=0",
    "stall": "stall:task=0,seconds=0.01",
    "fail": "fail:kernel=bincount",
    "kill": "kill:worker=0",
}


def check_fault_registry(
    root: str | os.PathLike | None = None,
) -> Check:
    """Every fault kind in the grammar is registered and handled.

    Statically: every ``spec.kind == "..."`` literal in
    :mod:`repro.resilience.faults` names a registered kind, every
    registered kind is handled by at least one comparison, and every
    injector hook (:data:`FAULT_SITE_HOOKS`) is both defined on
    :class:`~repro.resilience.faults.FaultInjector` and called from the
    kernels.  Dynamically: the parser accepts a minimal spec per kind
    and rejects unknown kinds/fields with quoted errors — so this check
    and the parser can never disagree about the registry.
    """
    from ..resilience import faults

    problems: list[str] = []
    kinds = set(faults.FAULT_KINDS)
    if set(_MINIMAL_SPECS) != kinds:
        problems.append(
            "minimal-spec table out of sync with FAULT_KINDS: "
            f"{sorted(set(_MINIMAL_SPECS) ^ kinds)}"
        )
    faults_path = Path(faults.__file__)
    tree = ast.parse(
        faults_path.read_text(encoding="utf-8"), filename=str(faults_path)
    )
    literals = _kind_literals(tree)
    unregistered = literals - kinds
    if unregistered:
        problems.append(
            f"kind literals not in FAULT_KINDS: {sorted(unregistered)}"
        )
    unhandled = kinds - literals
    if unhandled:
        problems.append(
            f"registered kinds no injector hook handles: "
            f"{sorted(unhandled)}"
        )
    # Hook surface: defined on the injector AND called from the kernels.
    missing_defs = [
        hook
        for hook in FAULT_SITE_HOOKS
        if not callable(getattr(faults.FaultInjector, hook, None))
    ]
    if missing_defs:
        problems.append(
            f"FaultInjector lacks hook(s): {sorted(missing_defs)}"
        )
    called: set[str] = set()
    for path in _package_files(root):
        if path.name == "faults.py":
            continue
        file_tree = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for node in ast.walk(file_tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in FAULT_SITE_HOOKS
            ):
                called.add(node.func.attr)
    uncalled = set(FAULT_SITE_HOOKS) - called
    if uncalled:
        problems.append(
            f"injector hook(s) never called from the kernels: "
            f"{sorted(uncalled)}"
        )
    # Parser agreement.
    for kind, spec in _MINIMAL_SPECS.items():
        try:
            faults.parse_fault_spec(spec)
        except ResilienceError as exc:
            problems.append(f"parser rejects registered {kind!r}: {exc}")
    for bad in ("bogus:task=0", "crash:tusk=0", "crash:task=zero"):
        try:
            faults.parse_fault_spec(bad)
        except ResilienceError as exc:
            token = bad.partition(":")[0] if ":" not in str(exc) else None
            quoted = repr(token) if token else None
            if quoted is not None and quoted not in str(exc):
                problems.append(
                    f"parse error for {bad!r} does not quote the "
                    f"offending token: {exc}"
                )
        else:
            problems.append(f"parser accepts malformed spec {bad!r}")
    return Check(
        "registry:fault-sites",
        not problems,
        "; ".join(problems)
        if problems
        else (
            f"{len(kinds)} kinds x {len(FAULT_SITE_HOOKS)} hooks "
            "registered, handled, called and parser-agreed"
        ),
    )


def check_exit_codes() -> Check:
    """Every typed exit code is documented in the CLI docstring."""
    import re as _re

    from .. import cli
    from ..errors import _EXIT_CODE_TABLE

    doc = (cli.__doc__ or "").lower()
    problems: list[str] = []
    seen_codes: set[int] = set()
    for etype, code in _EXIT_CODE_TABLE:
        stem = etype.__name__.lower().removesuffix("error")
        if stem not in doc:
            problems.append(
                f"{etype.__name__} (exit {code}) undocumented: no "
                f"{stem!r} in the CLI docstring"
            )
        elif not _re.search(rf"\b{code}\b", doc):
            problems.append(
                f"exit code {code} ({etype.__name__}) missing from the "
                "CLI docstring"
            )
        seen_codes.add(code)
    if len(seen_codes) != len(_EXIT_CODE_TABLE):
        problems.append("exit codes are not distinct per error family")
    return Check(
        "registry:exit-codes",
        not problems,
        "; ".join(problems)
        if problems
        else f"{len(_EXIT_CODE_TABLE)} typed exit codes documented",
    )


def _state_spec_calls(
    root: str | os.PathLike | None = None,
) -> Iterator[tuple[Path, ast.Call]]:
    for path in _package_files(root):
        tree = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "StateSpec"
            ):
                yield path, node


def check_state_registry(
    root: str | os.PathLike | None = None,
) -> Check:
    """Every ``StateSpec`` bundle-array name is checkpoint/guard safe.

    Statically collects every ``StateSpec("...")`` literal in the
    package and requires: the name is a Python identifier (the npz
    ``state_<name>`` schema and ``BundleGuard`` reports key on it), it
    does not shadow a reserved checkpoint v2 metadata key, and every
    keyword passed to ``StateSpec`` is a declared field (so ``guarded=``
    typos cannot silently drop an array from the guard's coverage).
    """
    from ..core.driver import StateSpec

    spec_fields = {f.name for f in fields(StateSpec)}
    problems: list[str] = []
    names: set[str] = set()
    count = 0
    for path, node in _state_spec_calls(root):
        count += 1
        where = f"{path.name}:{node.lineno}"
        if not node.args:
            problems.append(f"{where}: StateSpec() without a name")
            continue
        arg = node.args[0]
        if not (
            isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        ):
            problems.append(
                f"{where}: StateSpec name is not a string literal "
                "(not statically checkable)"
            )
            continue
        name = arg.value
        names.add(name)
        if not name.isidentifier():
            problems.append(
                f"{where}: bundle name {name!r} is not an identifier"
            )
        if name in RESERVED_STATE_KEYS:
            problems.append(
                f"{where}: bundle name {name!r} shadows a reserved "
                "checkpoint v2 key"
            )
        bad_kwargs = [
            kw.arg
            for kw in node.keywords
            if kw.arg is not None and kw.arg not in spec_fields
        ]
        if bad_kwargs:
            problems.append(
                f"{where}: unknown StateSpec field(s) "
                f"{sorted(bad_kwargs)}"
            )
    if count == 0:
        problems.append("no StateSpec declarations found")
    return Check(
        "registry:state-bundles",
        not problems,
        "; ".join(problems)
        if problems
        else (
            f"{count} StateSpec declarations over "
            f"{{{', '.join(sorted(names))}}} are schema-safe"
        ),
    )


def _reorder_probe_graphs():
    """Small adversarial graphs every reordering must survive: empty,
    all-isolated, multi-component, and a single supernode."""
    from ..graphs.graph import Graph

    empty = Graph.from_edges(0, [], [], name="probe-empty")
    isolated = Graph.from_edges(5, [], [], name="probe-isolated")
    components = Graph.from_edges(
        6, [0, 1, 3, 4], [1, 0, 4, 5], name="probe-components"
    )
    supernode = Graph.from_edges(
        8,
        [0, 0, 0, 0, 0, 0, 0],
        [1, 2, 3, 4, 5, 6, 7],
        name="probe-supernode",
    )
    return (empty, isolated, components, supernode)


def check_reorder_registry() -> Check:
    """Every registered reordering is well-formed and documented.

    Requires: every :data:`~repro.graphs.reorder.REORDERINGS` key is a
    Python identifier (it becomes a CLI choice and a tuning-blob
    field), every strategy returns a valid permutation on each
    adversarial probe graph (checked through
    :func:`~repro.analysis.contracts.check_permutation`), every key is
    mentioned in the module docstring of ``graphs/reorder.py``, and the
    tuner's candidate space covers the whole registry.
    """
    from ..errors import ReproError
    from ..graphs import reorder as reorder_mod
    from ..graphs.reorder import REORDERINGS
    from ..tuning import DEFAULT_REORDER, candidate_orderings
    from .contracts import check_permutation

    problems: list[str] = []
    doc = reorder_mod.__doc__ or ""
    probes = _reorder_probe_graphs()
    for name in sorted(REORDERINGS):
        if not name.isidentifier():
            problems.append(
                f"reordering name {name!r} is not an identifier"
            )
        if name not in doc:
            problems.append(
                f"reordering {name!r} undocumented in graphs/reorder.py"
            )
        strategy = REORDERINGS[name]
        for probe in probes:
            try:
                perm = strategy(probe)
            except ReproError as exc:
                problems.append(
                    f"{name} failed on {probe.name}: {exc}"
                )
                continue
            verdict = check_permutation(
                perm, name=f"{name} on {probe.name}"
            )
            if not verdict.passed:
                problems.append(f"{verdict.name}: {verdict.detail}")
            elif perm.size != probe.num_nodes:
                problems.append(
                    f"{name} on {probe.name}: permutation size "
                    f"{perm.size} != {probe.num_nodes} nodes"
                )
    missing = set(REORDERINGS) - set(candidate_orderings())
    if missing:
        problems.append(
            f"tuner sweep misses registered reordering(s) "
            f"{sorted(missing)}"
        )
    if DEFAULT_REORDER in REORDERINGS:
        problems.append(
            f"the identity sentinel {DEFAULT_REORDER!r} shadows a "
            "registered reordering"
        )
    return Check(
        "registry:reorderings",
        not problems,
        "; ".join(problems)
        if problems
        else (
            f"{len(REORDERINGS)} reorderings valid on "
            f"{len(probes)} probe graphs, documented and swept"
        ),
    )


def registry_checks(
    root: str | os.PathLike | None = None,
) -> list[Check]:
    """All four registry exhaustiveness checks."""
    return [
        check_fault_registry(root),
        check_exit_codes(),
        check_state_registry(root),
        check_reorder_registry(),
    ]


# --------------------------------------------------------------------- #
# the prove driver
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class CertRecord:
    """One certificate's outcome in a :class:`ProveReport`."""

    structure: str
    kind: str
    backend: str
    fingerprint: str
    certificate_id: str
    status: str  # certified | verified | uncertified | stale
    #: graph epoch the certificate was minted at (DESIGN 4i).
    epoch: int = 0

    @property
    def ok(self) -> bool:
        """True unless the ledger disagreed with the recomputed proof."""
        return self.status in ("certified", "verified")

    def render(self) -> str:
        """One aligned report line."""
        mark = "ok" if self.ok else "FAIL"
        return (
            f"  [{mark:>4}] {self.kind}:{self.structure}"
            f" x {self.backend}: {self.status}"
            f" ({self.certificate_id[:12]}, epoch {self.epoch})"
        )


@dataclass
class ProveReport:
    """Everything ``python -m repro prove`` computed."""

    title: str
    findings: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    certs: list = field(default_factory=list)
    ledger_path: str = DEFAULT_LEDGER
    updated: bool = False

    @property
    def ok(self) -> bool:
        """True when the tree is finding-free, every registry check
        passed and every certificate is (or now matches) the ledger."""
        return (
            not self.findings
            and all(c.passed for c in self.checks)
            and all(c.ok for c in self.certs)
        )

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [self.title]
        lines.append(
            f"numeric-safety dataflow: {len(self.findings)} finding(s)"
        )
        lines.extend(f"  {f.render()}" for f in self.findings)
        for check in self.checks:
            lines.append(check.render())
        lines.extend(cert.render() for cert in self.certs)
        bad = sum(1 for cert in self.certs if not cert.ok)
        if self.updated:
            verb = "updated"
        elif bad:
            verb = f"checked, {bad} FAILED against"
        else:
            verb = "verified against"
        lines.append(
            f"  {len(self.certs)} certificates {verb} {self.ledger_path}"
        )
        return "\n".join(lines)

    def raise_on_failure(self) -> None:
        """Raise :class:`~repro.errors.ProofError` if anything failed."""
        if self.ok:
            return
        problems: list[str] = []
        if self.findings:
            problems.append(
                f"{len(self.findings)} numeric-safety finding(s)"
            )
        problems.extend(
            f"{c.name}: {c.detail}" for c in self.checks if not c.passed
        )
        problems.extend(
            f"{c.kind}:{c.structure} x {c.backend} is {c.status}"
            for c in self.certs
            if not c.ok
        )
        raise ProofError("; ".join(problems))


def build_certificates(
    graph: Any,
    *,
    block_nodes: int = 512,
    backends: tuple = CERTIFIED_BACKENDS,
) -> list[Certificate]:
    """Certify the full structure x backend matrix of one graph.

    Structures: the Mixen Main-Phase plan, its Pre-Phase seed-push and
    Post-Phase sink-pull plans, and the Main-Phase plan of the
    whole-graph block layout the blocked baseline runs — everything a run
    of any algorithm on any engine dispatches through the kernels.  Each
    structure is proved once; its proof is the evidence under every
    backend.
    """
    from ..analysis.races import prove_schedule
    from ..core.filtering import filter_graph
    from ..core.mixed_format import build_mixed
    from ..core.partition import partition_regular
    from ..frameworks.blocking import build_block_layout

    plan = filter_graph(graph)
    mixed = build_mixed(graph, plan)
    partition = partition_regular(mixed.rr, block_nodes)
    csr = graph.csr
    block_layout = build_block_layout(
        csr.row_ids(), csr.indices, graph.num_nodes, block_nodes
    )
    structures = (
        ("mixen-main", partition.layout.reduce_plan),
        ("seed-push", mixed.seed_push_plan),
        ("sink-pull", mixed.sink_pull_plan),
        ("block-main", block_layout.reduce_plan),
    )
    proofs = [prove_schedule(reduce_plan) for _, reduce_plan in structures]
    return [
        certify_plan(reduce_plan, backend, structure=name, proof=proof)
        for backend in backends
        for (name, reduce_plan), proof in zip(structures, proofs)
    ]


def run_prove(
    graph_name: str = "wiki",
    *,
    scale: float = 0.25,
    block_nodes: int = 512,
    ledger_path: str | os.PathLike = DEFAULT_LEDGER,
    update: bool = False,
    root: str | os.PathLike | None = None,
    capacity: GraphCapacity | None = None,
) -> ProveReport:
    """The ``python -m repro prove`` driver.

    Runs the whole-tree numeric-safety dataflow pass, the four registry
    exhaustiveness checks, and the structure x backend certification
    matrix; verifies (or with ``update=True`` rewrites) the certificate
    ledger.  The caller decides whether a failed report raises
    (:meth:`ProveReport.raise_on_failure`).
    """
    from ..graphs import load_dataset

    findings: list[Finding] = prove_numeric_safety(
        root, capacity=capacity, targets=None
    )
    checks = registry_checks(root)
    graph = load_dataset(graph_name, scale=scale)
    certs = build_certificates(graph, block_nodes=block_nodes)
    # An update rewrites the ledger from scratch, so entries of
    # structures that no longer exist do not linger.
    ledger = (
        CertificateLedger(ledger_path)
        if update
        else CertificateLedger.load(ledger_path)
    )
    records: list[CertRecord] = []
    for cert in certs:
        if update:
            ledger.record(cert)
            status = "certified"
        else:
            status = ledger.verify(cert)
        records.append(
            CertRecord(
                structure=cert.structure,
                kind=cert.kind,
                backend=cert.backend,
                fingerprint=cert.fingerprint,
                certificate_id=cert.certificate_id,
                status=status,
                epoch=cert.epoch,
            )
        )
    if update:
        ledger.save()
    return ProveReport(
        title=(
            f"proof report: {graph_name} @ scale {scale:g}, "
            f"block_nodes={block_nodes} "
            f"({graph.num_nodes} nodes, {graph.num_edges} edges)"
        ),
        findings=findings,
        checks=checks,
        certs=records,
        ledger_path=str(ledger_path),
        updated=update,
    )
