"""Numerical laboratory for self-similar blowup of damped Keller-Segel aggregation."""

__version__ = "0.1.0"
