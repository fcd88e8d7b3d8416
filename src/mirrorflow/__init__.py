"""Continuous-time mirror descent dynamics: deterministic and stochastic
integrators with mirror-map geometry, energy diagnostics, executable
convergence bounds, and seeded ensemble experiments."""

__version__ = "0.1.0"
