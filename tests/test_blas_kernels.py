"""The exact identities hold on every OpenBLAS kernel type.

numpy's OpenBLAS is usually a DYNAMIC_ARCH build: it picks its kernels for
the CPU when it loads, and `OPENBLAS_CORETYPE` forces a type.  Kernels for
CPUs without AVX-512 round differently in the last bits: a column of a
multi-right-hand-side solve may depend on its position in the batch, and a
dot product may not cancel where another kernel does.  Replay bytes may
differ between kernel types, but the exact (== 0.0) identities must not.
Each case reruns the tests of those identities in a fresh interpreter
under one kernel type, so the variable is set before numpy loads.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
EXACT = ("acceptance_1_ or acceptance_8 or dichotomy or translation"
         " or abp_experiment_quick_run or 1d_frozen_problems_have_no_contact"
         " or toeplitz_solve_gives_equal_rows_equal_bits_anywhere"
         " or policy_solve_gives_equal_systems_equal_bits_anywhere"
         " or level_monotone_exact_coupling or subadditive_coupling")


def _dynamic_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in str(blas.get("openblas configuration", ""))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _dynamic_openblas(),
                    reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Prescott"])
def test_exact_identities_hold_on_every_kernel_type(coretype):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", EXACT,
         "--ignore", str(Path(__file__).resolve()), str(ROOT / "tests")],
        cwd=ROOT, env={**os.environ, "OPENBLAS_CORETYPE": coretype,
                       "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert " passed" in proc.stdout
