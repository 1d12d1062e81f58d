"""Pin the BLAS thread count and put the checkout's `src/` on the path.

Import this before numpy: OpenBLAS reads its thread count once, when it is
loaded. The thread count changes both the cost and the last bits of the
results (the committed CKA values reproduce at one thread), so every run
uses the same one.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
