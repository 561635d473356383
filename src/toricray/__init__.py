"""toricray: Mabuchi rays on toric manifolds, numerically.

Facet-exact Delzant polytopes, convex ray generators (bumps, wall sums,
PL smoothings), symplectic potentials and their Legendre geometry, monomial
section densities with coherent-state-transform limits, convergence
diagnostics, and test-configuration combinatorics.
"""

from .generators import (BumpSpec, Generator, PLConvex, build_bump_generator,
                         build_wall_sum, eval_generator)
from .limits import (battery_for, delta_diagnostic, distance_to_real,
                     face_delta_diagnostic, fit_rate, metric_length,
                     mixed_limit_frame, pair, polarization_distance,
                     polarization_frame, uniform_diagnostic)
from .polytope import (FaceFrame, Polytope, ell_values, face_frame,
                       integral_points, make_polytope, parse_polytope)
from .potentials import (det_identity_check, guillemin_jet,
                         holo_log_coordinate, legendre_forward,
                         legendre_inverse, ray_jet)
from .quantization import (MonomialDensity, base_log_weight, basis_census,
                           gcst_image, l1_norm, normalized_density, ray_rate,
                           rate_gap)
from .smoothing import build_nice_smoothing, verify_nice_family
from .testconfig import (build_Q, central_fiber_report, decompose,
                         nondiff_locus, thickening_mask,
                         thickening_membership)

__version__ = "0.1.0"
