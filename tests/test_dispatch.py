"""Golden bytes on every numpy SIMD dispatch path the host supports.

numpy picks each ufunc's inner loop at import from the CPU's features, and
NPY_DISABLE_CPU_FEATURES turns named ones off. Disabling each suffix of the
host's dispatch targets in turn (the newest first, down to all of them, which
leaves numpy's baseline) reaches every path numpy can take here. The golden
and calibration-golden tests rerun on each, one subprocess per path, side by
side; the run without the variable is the tier-1 run itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dairypv

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

TESTS = Path(__file__).parent
GOLDEN = ("test_golden.py", "test_calibration_golden.py")
# Empty, and the test skipped, where numpy reports no dispatch targets.
_FEATURES = getattr(_multiarray_umath, "__cpu_features__", {})
_TARGETS = [t for t in getattr(_multiarray_umath, "__cpu_dispatch__", ()) if _FEATURES.get(t)]
DISABLED = [" ".join(_TARGETS[i:]) for i in range(len(_TARGETS))]


@pytest.fixture(scope="module")
def reruns():
    """One running golden rerun per dispatch path, keyed by the disabled features."""
    src = str(Path(dairypv.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    started = {}
    for disabled in DISABLED:
        # features this process already runs without stay off
        also = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=f"{also} {disabled}".strip(),
                   PYTHONPATH=pythonpath)
        started[disabled] = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "--tb=line", "-p", "no:cacheprovider",
             *(str(TESTS / name) for name in GOLDEN)],
            cwd=TESTS.parent, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
    yield started
    for process in started.values():
        if process.returncode is None:  # its test did not run
            process.kill()
            process.communicate()


@pytest.mark.parametrize("disabled", DISABLED)
def test_golden_bytes_on_dispatch_path(reruns, disabled):
    output, _ = reruns[disabled].communicate()
    failed = [line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))]
    assert reruns[disabled].returncode == 0, (
        f"NPY_DISABLE_CPU_FEATURES={disabled!r}:\n"
        + "\n".join(failed or output.splitlines()[-20:]))
