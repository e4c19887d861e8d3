"""Pin BLAS to one thread before numpy loads.

Trained weights, and so the recorded values the tests compare bitwise,
depend on the BLAS thread count; pytest imports this file before any test
module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
