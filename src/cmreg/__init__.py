"""Exact graded commutative algebra over prime fields and the rationals:
polynomial rings, Groebner bases, ideal operations, Hilbert series, minimal
free resolutions and Castelnuovo-Mumford regularity — plus the construction
and claim-by-claim verification of a family of almost complete intersections
supported on monomial curves."""

from ._kernel import BudgetExceeded
from .ring import (GREVLEX, Block, Grevlex, PermutedGrevlex, PolyRing, Polynomial,
                   PrimeField, QQ, RationalField, field_of_characteristic, transport)
from .groebner import GroebnerBasis, Ideal, buchberger, member
from .idealops import (a0, colon, intersect, saturate, saturate_by_variables,
                       saturate_irrelevant)
from .hilbert import (HilbertData, dim_deg, finite_length, hilbert_function,
                      hilbert_series, indeg)
from .resolution import (BettiTable, betti, minimal_resolution, pdim,
                         regularity, regularity_ideal)
from .families import build_family
from .sections import (GenericityFailure, cor13_rhs, general_section,
                       random_linear_form, thm11_rhs)
from . import verify

__version__ = "0.1.0"
