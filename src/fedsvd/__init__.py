"""Desk-scale federated LoRA fine-tuning simulator with DP-SGD.

Implements server-side SVD reparameterization of the adapter product
(FedSVD) alongside FedAvg, FFA-LoRA, FLoRA and FedEx-LoRA baselines, Renyi-DP
accounting with noise calibration, and numerical verification of
the method's algebraic and spectral properties.
"""

import os

# The metrics CSV is deterministic per BLAS thread count: a multithreaded
# gemm may split its sums differently, and the backbone fit carries the
# rounding into every later round. Pin one thread unless the user set a
# count. This must run before numpy loads; a process that imported numpy
# first keeps the thread count it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
