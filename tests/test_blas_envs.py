"""The batch-invariance tests rerun under other BLAS settings, each in a child process.

Artifact bytes are a function of the BLAS kernel and its thread count. A tile
height that keeps every row's bits with one thread can lose them when a GEMM
splits between threads, and a second kernel must keep every invariance the
first one keeps: stored noises decode to their stored samples, pretraining's
one-tile forward keeps the bits of one GEMM per layer, and a pair's score gap
does not depend on its batch. `OPENBLAS_NUM_THREADS` and `OPENBLAS_CORETYPE`
are read when OpenBLAS loads, so each setting needs a fresh interpreter.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TWO_THREADS = {"OPENBLAS_NUM_THREADS": "2"}
SECOND_KERNEL = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}


def _pytest_child(tmp_path: Path, blas_env: dict[str, str], *args: str) -> int:
    """Run pytest on args in a child with blas_env set; the number of tests it passed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp", str(tmp_path), *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **blas_env}, capture_output=True, text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    return int(re.search(r"(\d+) passed", r.stdout)[1])


@pytest.mark.parametrize("blas_env", [TWO_THREADS, SECOND_KERNEL], ids=["two_threads", "second_kernel"])
def test_kernel_invariance_holds_under_other_blas_settings(tmp_path, blas_env):
    assert _pytest_child(tmp_path, blas_env, "-m", "kernel_invariance", "tests") >= 8


def test_subcommands_rerun_byte_identically_under_a_second_kernel(tmp_path):
    assert _pytest_child(tmp_path, SECOND_KERNEL, "tests/test_acceptance.py::test_c10_subcommands_byte_identical") == 1
