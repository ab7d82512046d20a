"""Desk-scale federated LoRA fine-tuning simulator with DP-SGD.

Implements server-side SVD reparameterization of the adapter product
(FedSVD) alongside FedAvg, FFA-LoRA, FLoRA and FedEx-LoRA baselines, Renyi-DP
accounting with noise calibration, and numerical verification of
the method's algebraic and spectral properties.
"""

__version__ = "0.1.0"
