"""Multiple covers of simplicial complexes with deformation certificates,
and the category bounds they support."""

from .complexes import (Complex, ComplexError, SimplicialMap, builtin,
                        product_complex, random_complex)
from .tower import (OpenCellSet, SubdivisionTower, TowerDepthError, TowerError,
                    TowerSizeError, VertexStarSet, dual_complex, preimage,
                    star)
from .certify import (Certificate, CertificateFormatError,
                      CertificateGenerationError, PartitionPush, Refine,
                      StarSnap, Target, Verdict, certify_to_dimension,
                      make_dual_push, make_star_snap, verify_certificate)
from .cover import (ConstructionError, CoverBundle, CoverError, CoverReport,
                    build_cover, cover_parameters, cover_signatures, is_k_cover,
                    pullback_cover, verify_cover_bundle)
from .product import (ProductCoverBundle, assemble_product_cover, lemma_bound,
                      product_skeleton, verify_product_cover)
from .bounds import (BoundProfile, BoundResult, BoundsError, FibrationProfile,
                     NotApplicable, best_upper, betti_mod2, corollary_bound,
                     cuplength_mod2, fibration_bound, main_bound, rconn_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
