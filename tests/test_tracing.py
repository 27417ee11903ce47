"""The benchmark's tracer wraps pcl functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"pcl.{layer}")
        for name in names:
            # a function or class of the module, or a method defined on its class
            owner_name, _, method = name.partition(".")
            owner = getattr(module, owner_name, None)
            if not callable(owner) or (method and method not in vars(owner)):
                missing.append(f"{layer}.{name}")
    assert not missing, f"bench/tracing.py traces names pcl does not define: {missing}"
