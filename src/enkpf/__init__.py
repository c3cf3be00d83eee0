"""Ensemble Kalman particle filters, localized variants, and a 1D
convective-scale shallow-water testbed for cycled twin experiments."""

__version__ = "0.1.0"
