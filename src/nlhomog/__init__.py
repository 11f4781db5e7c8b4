"""Numerical laboratory for effective limits of random nonlocal operators.

Modules
-------
records    bases of the record types: equality, hashing, replace
env        lazily sampled random checkerboard environments
kernels    kernel families and monotone quadrature tables
operators  boxes, exterior rules, test functions, unit moments
solve      Dirichlet and obstacle solvers on boxes and balls
homog      contact statistics, effective levels, experiment drivers
cli        config-driven runner with its acceptance checks
"""

import os

# One BLAS thread, set before any module here loads numpy: threaded OpenBLAS
# kernels sum in an order that depends on the thread count, and so would
# the last bits of every replayed number.  Worker threads share the setting.
# A host program that loaded numpy first keeps its own BLAS threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .errors import CheckFailure, ConfigurationError, SolverError

__all__ = ["CheckFailure", "ConfigurationError", "SolverError", "__version__"]
