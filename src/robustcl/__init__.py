"""Desk-scale laboratory for robust contrastive representation learning."""

import os

# One BLAS thread, set before numpy loads (import robustcl first): OpenBLAS reads
# the count once, the committed cache reproduces at one thread, and
# `experiment.run_cells` trains on one worker per usable CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
