"""The package and the CLI as a fresh interpreter starts them."""
import os
import subprocess
import sys

import numpy as np
import pytest

from biharm.formats import save_bandset
from biharm.raster import BandSet, Raster

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(*args, flags=("-X", "dev", "-W", "error"), stdout=subprocess.PIPE, **env):
    """Run a fresh interpreter with ``flags`` (dev mode with warnings as
    errors), under an environment that holds only PATH, the source path and
    ``env``; stderr is captured, and stdout too unless ``stdout`` is given."""
    full_env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC, **env}
    return subprocess.run([sys.executable, *flags, *args], env=full_env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def test_cli_module_runs():
    proc = _python("-m", "biharm.cli", "stencil")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.split()) == 25


def test_closed_stdout_ends_quietly():
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE every time, not only when a reader exits early
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "biharm.cli", "stencil", stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("iters,stderr", [
    ("3", "biharm: warning: Jacobi iteration diverges: each of the 3 sweeps with "
          "omega=1 multiplies the highest frequency by -2.2 (stable for omega < 0.625)\n"),
    ("1", ""),
])
def test_cli_warning_is_one_line(iters, stderr, tmp_path):
    # each of the 3 bands warns from the same line: the default filter shows
    # the warning once, as one line without the source file and line
    src, out = tmp_path / "in.bfr", tmp_path / "out.bfr"
    rng = np.random.default_rng(5)
    save_bandset(BandSet([Raster(rng.normal(100, 10, (16, 16))) for _ in range(3)]), src)
    proc = _python("-m", "biharm.cli", "smooth", "--in", str(src), "--out", str(out),
                   "--iters", iters, flags=("-X", "dev"))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, stderr, "")
    assert out.exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_import_starts_no_blas_pool():
    proc = _python("-c", "import os, biharm; "
                         "print(os.environ['OPENBLAS_NUM_THREADS'], "
                         "len(os.listdir('/proc/self/task')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


@pytest.mark.parametrize("env,code,expected", [
    # a setting made before the import is kept
    ({"OPENBLAS_NUM_THREADS": "3"},
     "import os, biharm; print(os.environ['OPENBLAS_NUM_THREADS'])", "3"),
    # numpy loaded first has read the variable already: it is left unset
    ({}, "import os, numpy, biharm; print(os.environ.get('OPENBLAS_NUM_THREADS'))", "None"),
])
def test_blas_setting_of_the_caller_is_kept(env, code, expected):
    proc = _python("-c", code, **env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_package_exports_functions_not_submodules():
    proc = _python("-c", "import inspect; from biharm import convolve, load_bandset; "
                         "print(inspect.isfunction(convolve), inspect.isfunction(load_bandset))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_benchmark_harness_imports():
    # the harness imports library names that no other test reads; run from
    # the repository root, as the benchmark command is
    root = os.path.dirname(SRC)
    proc = subprocess.run([sys.executable, "-B", "-c",
                           "import sys; sys.path.insert(0, 'perfbench'); import run"],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
