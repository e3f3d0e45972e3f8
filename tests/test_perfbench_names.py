"""Guard: the benchmark's tracing plan still finds every name it traces.

``perfbench/workloads.py``'s ``patch_library`` wraps library functions by
name and returns the names it could not find.  A rename in the library
would silently drop a layer from traced runs, so the plan must find all of
them.  The stub tracer only records, so nothing is patched.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class _RecordingTracer:
    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, hook):
        self.names.append(name)


def test_patch_library_finds_every_traced_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    tracer = _RecordingTracer()
    assert workloads.patch_library(workloads.Library(), tracer) == []
    assert {"tube.contains", "tube.u_value", "tube.core_distance", "tangent.to_tangent"} <= set(
        name for name in tracer.names if isinstance(name, str))
