"""The benchmark's tracer patches dqipe entry points by name, so a rename or
deletion breaks the traced run. perfbench/tracer.py is loaded by path and
only read."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_on_its_dqipe_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for table in (tracer.ENTRY_POINTS, tracer.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"dqipe.{layer}")
            for name in names:
                obj = module
                for part in name.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    missing.append(f"{layer}.{name}")
    assert missing == []
