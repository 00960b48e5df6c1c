"""The benchmark's per-layer names must still name functions of the package.

bench/spans.py skips any layer it cannot find, so a rename would read as
zero time in that layer instead of failing.  This test loads spans.py
from its file, without changing it or sys.path, and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path


SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _own_attribute(module_name, path):
    # resolves the way spans.instrument does: through owners, then the
    # final name from the owner's own __dict__
    owner = importlib.import_module(f"swinscan.{module_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[parts[-1]]


def _unresolved(names):
    missing = []
    for module_name, path in names:
        try:
            fn = _own_attribute(module_name, path)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        if not callable(fn):
            missing.append(f"{module_name}.{path}")
    return missing


def test_every_layer_resolves():
    assert _unresolved((m, p) for m, p, _ in SPANS.LAYERS) == []


def test_every_tensor_op_and_the_tape_hook_resolve():
    names = [("tensor", op) for op in SPANS.TENSOR_OPS] + [("tensor", "Tape.record")]
    assert _unresolved(names) == []
