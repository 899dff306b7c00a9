"""Exact computations with multiplier Hopf algebras, partial (co)actions on
nonunital algebras, and their globalizations.

Everything is computed over exact rationals (`Scalar`: an int when
integral, a Fraction otherwise); checks are exhaustive on finite
structures and windowed (with explicit inconclusive outcomes) on infinite
ones.
"""

from .vectors import FinVec, LinearMapTable, Scalar, tensor, token_key
from .groups import (
    GroupSpec,
    cyclic_group,
    integers_group,
    parse_group,
    symmetric_group,
)
from .algebras import (
    Algebra,
    Corner,
    Multiplier,
    group_algebra_plain,
    pointwise_algebra,
    tensor_square_algebra,
)
from .mha import MhaInstance, check_mha_axioms, instance_for
from .errors import (
    CapabilityError,
    MhopfError,
    NoLocalUnitError,
    StructuralError,
    WindowError,
)

__version__ = "0.1.0"
