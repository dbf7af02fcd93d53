"""The end-to-end benchmark's traced mode reaches into the program by
name: ``e2ebench/worker.py``'s ``Patches`` wraps module and class
attributes, and ``probe_layers`` times kernels by name.  A refactor that
drops or renames one of those names breaks the traced smoke run; this
test catches it in seconds.

The worker is imported in a child interpreter (``e2ebench`` and ``src``
on ``sys.path``), so its ``common`` module never enters this process.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = textwrap.dedent(
    """
    import ast
    import dataclasses
    import inspect
    import sys

    sys.path[:0] = [{e2e!r}, {src!r}]

    import worker
    from common import Tracer

    from repro.core.kernels import KERNELS
    from repro.core.partition import RegularPartition
    from repro.frameworks.blocking import BlockLayout

    patches = worker.Patches(Tracer())
    patches.install()
    try:
        wrapped = [
            getattr(owner, attr) is not original
            for owner, attr, original in patches.saved
        ]
    finally:
        patches.remove()
    assert wrapped and all(wrapped), "a patch target was not wrapped"
    for owner, attr, _ in patches.targets + patches.properties:
        assert attr in owner.__dict__, (owner, attr)
    assert not patches.saved

    source = inspect.getsource(worker.probe_layers)
    timed = [
        node.iter.elts
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == "kernel"
    ]
    assert len(timed) == 1, "probe_layers kernel loop not found"
    names = [elt.value for elt in timed[0]]
    missing = [name for name in names if name not in KERNELS]
    assert not missing, f"probe_layers times unknown kernels {{missing}}"

    assert "scatter_tasks" in inspect.signature(BlockLayout.spmv).parameters
    fields = {{f.name for f in dataclasses.fields(RegularPartition)}}
    assert "tasks" in fields | set(vars(RegularPartition))
    print("hooks resolve:", len(patches.targets), "patches,", names)
    """
)


def test_traced_probes_resolve():
    script = CHECK.format(
        e2e=str(ROOT / "e2ebench"), src=str(ROOT / "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "hooks resolve:" in proc.stdout
