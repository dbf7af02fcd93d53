"""Bridging Section 5's analytic model and a prepared Mixen engine.

:func:`model_for_engine` instantiates the Eq. (1)–(2) cost model with the
engine's *measured* alpha/beta/block-size, so benches can compare predicted
against simulated counters; :func:`iteration_counters` records one
iteration of any prepared engine's access pattern and runs it through a
memory hierarchy, returning what the "hardware" saw.
"""

from __future__ import annotations

from ..machine.hierarchy import MemoryHierarchy, MachineSpec, SCALED_MACHINE
from ..machine.model import MixenModel
from ..machine.counters import MachineCounters
from ..machine.trace import AccessTrace, AddressSpace
from .engine import MixenEngine


def model_for_engine(
    engine: MixenEngine, *, property_bytes: int = 4
) -> MixenModel:
    """Eq. (1)–(2) parameterized with the engine's measured profile."""
    engine._require_prepared()
    g = engine.graph
    return MixenModel(
        num_nodes=g.num_nodes,
        num_edges=g.num_edges,
        alpha=engine.alpha,
        beta=engine.beta,
        c_nodes=engine.block_nodes,
        property_bytes=property_bytes,
    )


def iteration_counters(
    engine, *, spec: MachineSpec = SCALED_MACHINE
) -> MachineCounters:
    """Counters of one simulated iteration of a prepared engine
    (:meth:`~repro.frameworks.base.Engine.trace_iteration`; for Mixen,
    the Main-Phase)."""
    trace = AccessTrace(AddressSpace(spec.line_bytes))
    engine.trace_iteration(trace)
    return MemoryHierarchy(spec).run_trace(trace)
