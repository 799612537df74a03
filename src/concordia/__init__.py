"""Exact-arithmetic toolkit for theta-congruent numbers, concordant
forms, rational squares in arithmetic progression and the elliptic
curves E(m,n): y^2 = x(x+m)(x+n)."""

from .curves import (Curve, INFINITY, NormalizedParams, Point,
                     canonical_model, normalize_params)
from .geometry import (APTriple, DegenerateTriangleError, Triangle,
                       ap_to_quadric, ap_to_triangle, isosceles_triangle,
                       quadric_to_ap, triangle_to_ap)
from .problems import (FamilyRecord, SolutionEntry, SolutionReport,
                       four_torsion_counterexamples, gen_order4_family,
                       gen_order8_family, gen_order36_family,
                       solve_concordant, solve_theta_congruent,
                       verify_concordant_solution)
from .quadrics import (QuadricPoint, concordant_form_map, point_to_quadric,
                       quadric_to_point, right_triangle_map)
from .torsion import (CertificateMismatch, TorsionClass, check_k_constraint,
                      classify_torsion, eight_torsion_points,
                      four_torsion_points, three_six_torsion_points,
                      torsion_subgroup)
from .triples import (ConcordantTriple, CongruentTriple,
                      concordant_to_congruent, congruent_to_concordant)

__version__ = "0.1.0"
