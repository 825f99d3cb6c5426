"""Knot contact homology toolkit.

Computes the framed knot DGA of a knot diagram, its degree-0 homology
(cord algebra) presentation, augmentation numbers over prime fields, and
augmentation polynomials, with built-in consistency checks.
"""

from .augment import (AugTable, IntractableError, Signature, aug_signature,
                      count_augmentations, distinguish)
from .augpoly import (AugPolyResult, augmentation_polynomial,
                      check_apoly_divisibility)
from .dga import (FramedKnotDGA, build_dga, build_matrices, check_d_squared,
                  check_grading)
from .diagram import (CrossingData, DiagramError, MoveError, PDCode,
                      apply_move, available_moves, crossing_data, mirror,
                      parse_pd, renumber)
from .hc0 import Presentation, extract_presentation, simplify
from .laurent import (LaurentPoly, UniPoly, divides, pairwise_resultants,
                      parse_poly, render, resultant, unit_normalize)
from .ncalg import Derivation, Generator, NCPoly
from .pipeline import Run

__version__ = "0.1.0"
