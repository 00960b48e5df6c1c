"""The benchmark's per-layer names must still name functions of the package.

bench/spans.py skips any layer it cannot find, so a rename would read as
zero time in that layer instead of failing.  This test loads spans.py
from its file, without changing it or sys.path, and resolves every name.
It also pins the entry points the benchmark starts the service through,
and those it builds, trains and saves models through.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest


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


def test_service_entry_points_resolve():
    # bench/launcher.py calls service.main; acceptance check 09 also
    # calls service.create_server
    assert _unresolved([("service", "main"), ("service", "create_server")]) == []


# bench/training.py and bench/workloads.py build, train and save models
# and make requests through these names and keywords
BENCH_ENTRY_POINTS = {
    "model.default_config": (),
    "model.ModelWeights.init": ("seed",),
    "model.save_weights": (),
    "data.Sample": (),
    "data.write_pnm": (),
    "train.train": (),
    "train.TrainConfig": ("epochs", "batch_size", "learning_rate", "seed"),
    "train.AdamW": (),
}


@pytest.mark.parametrize("dotted", sorted(BENCH_ENTRY_POINTS))
def test_benchmark_entry_point_resolves(dotted):
    module_name, *parts = dotted.split(".")
    obj = importlib.import_module(f"swinscan.{module_name}")
    for part in parts:
        obj = getattr(obj, part, None)
    assert callable(obj)
    keywords = inspect.signature(obj).parameters
    assert all(k in keywords for k in BENCH_ENTRY_POINTS[dotted])


def test_service_module_runs_as_a_script():
    # bench/serve.py starts the server with `python -m swinscan.service`
    src = str(Path(importlib.import_module("swinscan").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "swinscan.service", "--help"], env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0
    assert b"serve" in done.stdout
