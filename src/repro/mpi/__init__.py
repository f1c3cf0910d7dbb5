"""MPI model on the simulated cluster (host-staging and CUDA-aware)."""

from .api import MpiCosts, MpiProcess, MpiWorld, Request

__all__ = ["MpiCosts", "MpiProcess", "MpiWorld", "Request"]
