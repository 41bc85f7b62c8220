"""Bar-Natan and alpha-deformed link homology from PD codes.

The package computes bigraded homology summaries over F2[h] (and
specializations of the two-root deformation), extracts the torsion
order invariants that bound ribbon distance and unknotting number, and
evaluates cobordism movies to chain maps so the algebraic identities
behind those bounds can be checked instance by instance.
"""

from .diagram import (LinkDiagram, OrientationError, PDSyntaxError, faces,
                      is_planar, parse_pd, unknot_diagram)
from .frobenius import (TheoryError, Theory, alpha_generic, axiom_report,
                        bar_natan, khovanov_f2, neck_cutting_report,
                        specialize, theory_from_selector)
from .complexes import (ChainComplex, ChainMap, CubeComplex, add_maps,
                        build_complex, compose, identity_map, maps_equal,
                        scale_map, zero_map)
from .homology import (HomologyData, HomologySummary, TorsionBound,
                       homology, induced_map, maps_equal_on_homology,
                       quotient_dims, torsion_bound)
from .jones import (determinant, jones_polynomial, kauffman_bracket,
                    quantum_jones)
from .cobordism import (Move, MoveError, Movie, MovieError, apply_move,
                        evaluate_movie, load_movie, parse_movie,
                        ribbon_structure_errors, verify_dot_crossing,
                        verify_ribbon_composite, verify_saddle_split,
                        verify_star_placement, verify_symmetry)
from .tables import load_table
from .tangles import scan_complex

__version__ = "0.1.0"

__all__ = [
    "LinkDiagram", "OrientationError", "PDSyntaxError", "faces",
    "is_planar", "parse_pd", "unknot_diagram",
    "TheoryError", "Theory", "alpha_generic", "axiom_report", "bar_natan",
    "khovanov_f2", "neck_cutting_report", "specialize",
    "theory_from_selector",
    "ChainComplex", "ChainMap", "CubeComplex", "add_maps", "build_complex",
    "compose", "identity_map", "maps_equal", "scale_map", "zero_map",
    "HomologyData", "HomologySummary", "TorsionBound", "homology",
    "induced_map", "maps_equal_on_homology", "quotient_dims",
    "torsion_bound",
    "determinant", "jones_polynomial", "kauffman_bracket", "quantum_jones",
    "Move", "MoveError", "Movie", "MovieError", "apply_move",
    "evaluate_movie", "load_movie", "parse_movie",
    "ribbon_structure_errors", "verify_dot_crossing",
    "verify_ribbon_composite", "verify_saddle_split",
    "verify_star_placement", "verify_symmetry",
    "load_table",
    "scan_complex",
    "__version__",
]
