"""Static analysis of the parallel engines' structural invariants.

Five layers, all operating on the layout metadata the engines already
build (no new traversals of the edge structure):

* :mod:`repro.analysis.races` — proves a segmented-reduce plan's
  partitions race-free for every kernel rung *before* dispatch (run-
  aligned cuts plus pairwise disjoint message and output intervals),
  plus an instrumented dynamic replay (``REPRO_RACE_CHECK=1`` /
  ``--race-check``);
* :mod:`repro.analysis.contracts` — validators for the mixed CSR/CSC
  representation, the relabeling permutation, the class boundaries and
  the 2-D block/bin layout (``python -m repro analyze``, ``--validate``);
* :mod:`repro.analysis.dataflow` — AST abstract interpreter proving the
  kernel/parallel modules numerically safe: no int32 flat-index product
  can exceed ``2**31 - 1`` under the declared graph capacity, and no
  silent float32/float64 promotion breaks bit-identity;
* :mod:`repro.analysis.certify` — unified plan certifier: one
  machine-readable, fingerprint-keyed proof certificate per structure x
  backend pair, persisted in a committed ledger and verified by
  ``python -m repro prove``; plus the registry exhaustiveness checks
  (fault sites, exit codes, state-bundle names);
* :mod:`repro.analysis.lint` — project-specific AST lint rules over the
  source tree (``tools/run_lint.py``).
"""

from .certify import (
    Certificate,
    CertificateLedger,
    ProveReport,
    build_certificates,
    certify_layout,
    certify_plan,
    check_exit_codes,
    check_fault_registry,
    check_state_registry,
    run_prove,
)
from .contracts import (
    Check,
    ContractReport,
    analyze_graph,
    check_bins,
    check_class_boundaries,
    check_csr,
    check_layout,
    check_permutation,
)
from .dataflow import (
    Finding,
    GraphCapacity,
    analyze_file,
    analyze_source,
    prove_numeric_safety,
)
from .races import (
    AccessInterval,
    PlanProof,
    TaskAccess,
    prove_disjoint,
    prove_schedule,
    race_check_enabled,
    replay_plan,
)

__all__ = [
    "AccessInterval",
    "Certificate",
    "CertificateLedger",
    "Check",
    "ContractReport",
    "Finding",
    "GraphCapacity",
    "PlanProof",
    "ProveReport",
    "TaskAccess",
    "analyze_file",
    "analyze_graph",
    "analyze_source",
    "build_certificates",
    "certify_layout",
    "certify_plan",
    "check_bins",
    "check_class_boundaries",
    "check_csr",
    "check_exit_codes",
    "check_fault_registry",
    "check_layout",
    "check_permutation",
    "check_state_registry",
    "prove_disjoint",
    "prove_numeric_safety",
    "prove_schedule",
    "race_check_enabled",
    "replay_plan",
    "run_prove",
]
