"""Test-session set-up, run by pytest before any test module loads.

One BLAS and OpenMP thread, set before numpy loads, as bench/run.py sets it:
the suite's time budgets (criterion 1's 300 s) then hold whatever else runs
on the host, where default threads contend with it.  The thread count does
not move solver bits (README, "Solver bits are per host").
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
