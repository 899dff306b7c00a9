"""Exact computations with multiplier Hopf algebras, partial (co)actions on
nonunital algebras, and their globalizations.

Everything is computed over exact rationals (`Scalar`: an int when
integral, a Fraction otherwise); checks are exhaustive on finite
structures and windowed (with explicit inconclusive outcomes) on infinite
ones.
"""

__version__ = "0.1.0"
