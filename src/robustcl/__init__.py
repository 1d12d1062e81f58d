"""Desk-scale laboratory for robust contrastive representation learning."""

import ctypes
import os

# One BLAS thread, set before numpy loads (import robustcl first): OpenBLAS reads
# the count once, the committed cache reproduces at one thread, and
# `experiment.run_cells` trains on one worker per usable CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc's M_TOP_PAD: keep 16 MiB spare at the top of the heap when it grows or
# trims. With image datasets held as uint8 codes the heap is small, and without
# the pad glibc gave its top back after every training step and faulted it in
# again in the next: a 12-s perfbench `train_st` run (2 vCPUs, glibc 2.36) took
# 399-406k minor page faults and 8% fewer examples/s, against 8.0k with the pad.
# Where the C library has no `mallopt` (not glibc), nothing is set.
M_TOP_PAD = -2
TOP_PAD_BYTES = 16 << 20
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
if _mallopt is not None:
    _mallopt(M_TOP_PAD, TOP_PAD_BYTES)

__version__ = "0.1.0"
