"""Collisional decoherence of a free particle: exact Gaussian closed forms, a
spectral master-equation solver, a marginal-wavefunction solver with a
logarithmic nonlinearity, and the structural identities tying them together."""

# perfbench/setup_probe.py reads these two from the package; all else is in submodules
from .gaussian import GaussianParams
from .scenario import load_scenario

__version__ = "0.1.0"
