"""Importing swinscan sets process-wide defaults before numpy loads.

It keeps freed buffers in the heap.  A child process allocates and frees
two 16 MiB arrays per round.  Under glibc's defaults each round maps or
trims those pages and faults them in again; once swinscan is imported, a
round reuses the heap and takes about no minor page faults.

It also defaults BLAS to one thread, unless the environment sets a count,
and gives one thread to the OpenBLAS of a numpy that loaded first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

ROUNDS = """
import resource
import sys
if sys.argv[1] == "import":
    import swinscan
import numpy as np

def one_round():
    a = np.ones(2 << 20)
    b = np.ones(2 << 20)
    del a, b

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_round()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _faults_per_round(mode: str) -> float:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", ROUNDS, mode], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


@pytest.mark.skipif(not _glibc(), reason="mallopt tuning applies to glibc only")
def test_freed_buffers_stay_in_the_heap():
    without = _faults_per_round("plain")
    with_swinscan = _faults_per_round("import")
    # 32 MiB is 8,192 pages; the defaults fault in about 1,000 per round
    assert without > 100
    assert with_swinscan < 10


BLAS_THREADS = """
import os
import sys
import swinscan
print("numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""


def _blas_threads(**preset: str) -> list[str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(preset)
    done = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def test_blas_threads_default_to_one_unless_set():
    assert _blas_threads() == ["False", "1", "1"]
    assert _blas_threads(OPENBLAS_NUM_THREADS="3") == ["False", "3", "1"]


NUMPY_FIRST = """
import ctypes
import glob
import os
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
found = glob.glob(os.path.join(libs, "libscipy_openblas*"))
get = getattr(ctypes.CDLL(found[0]), "scipy_openblas_get_num_threads64_", None) if found else None
if get is None:
    print("none")
else:
    before = get()
    import swinscan
    print(before, get())
"""


def _threads_numpy_first(**preset: str) -> list[str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(preset)
    done = subprocess.run([sys.executable, "-c", NUMPY_FIRST], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    counts = done.stdout.split()
    if counts == ["none"]:
        pytest.skip("numpy bundles no scipy-openblas with a thread-count call")
    return counts


def test_blas_threads_capped_when_numpy_loaded_first():
    assert _threads_numpy_first()[1] == "1"
    # a count the user set is left alone, whatever OpenBLAS made of it
    before, after = _threads_numpy_first(OPENBLAS_NUM_THREADS="2")
    assert after == before
