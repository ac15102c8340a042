"""Multiple covers of simplicial complexes with deformation certificates,
and the category bounds they support.

Names are imported from their module on first use (PEP 562), so that
`import kocover` loads neither numpy nor the cover stack until a name from
it is asked for."""

import importlib

# the public names, by the module that defines them
_EXPORTS = {
    "complexes": ("Complex", "ComplexError", "SimplicialMap", "builtin",
                  "product_complex", "random_complex"),
    "tower": ("OpenCellSet", "SubdivisionTower", "TowerDepthError", "TowerError",
              "TowerSizeError", "VertexStarSet", "dual_complex", "preimage", "star"),
    "certify": ("Certificate", "CertificateFormatError", "PartitionPush", "StarSnap",
                "Target", "Verdict", "verify_certificate"),
    "cover": ("ConstructionError", "CoverBundle", "CoverError", "CoverReport",
              "build_cover", "cover_parameters", "cover_signatures", "is_k_cover",
              "pullback_cover", "verify_cover_bundle"),
    "product": ("ProductCoverBundle", "assemble_product_cover", "lemma_bound",
                "product_skeleton", "verify_product_cover"),
    "bounds": ("BoundProfile", "BoundResult", "BoundsError", "FibrationProfile",
               "NotApplicable", "best_upper", "corollary_bound", "fibration_bound",
               "main_bound", "rconn_bound"),
    "cohomology": ("betti_mod2", "cuplength_mod2"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value
