"""realform: decide simultaneous conjugacy of complex matrix collections
into PGL(k,R), with explicit certificates and cross/triple-ratio
coordinates."""

from .config import DEFAULT_TOLERANCES, Tolerances
from .decide import (
    Certificate,
    Verdict,
    condition_functions_pgl2,
    decide,
    decide_direct,
    decide_pgl2,
    decide_pgl3,
    decide_pglk_cross_only,
    decide_pglk_fg,
    verify_certificate,
)
from .oracle import GeneratedInstance, InstanceSpec, brute_rform_search, generate
from .projlin import EigenSystem, ProjFrame, ProjPoint, eig, frame_from_points, homography, proj_eq
from .rform import (
    Conjugation,
    EigenDatum,
    Multiplicity,
    conjugation_from_eigendata,
    preserves,
    realifier,
    rform_multiplicity,
)
from .spectrum import SpectralClass, classify_eigenvalues, type_transformation

__all__ = [
    "Certificate",
    "Conjugation",
    "DEFAULT_TOLERANCES",
    "EigenDatum",
    "EigenSystem",
    "GeneratedInstance",
    "InstanceSpec",
    "Multiplicity",
    "ProjFrame",
    "ProjPoint",
    "SpectralClass",
    "Tolerances",
    "Verdict",
    "brute_rform_search",
    "classify_eigenvalues",
    "condition_functions_pgl2",
    "conjugation_from_eigendata",
    "decide",
    "decide_direct",
    "decide_pgl2",
    "decide_pgl3",
    "decide_pglk_cross_only",
    "decide_pglk_fg",
    "eig",
    "frame_from_points",
    "generate",
    "homography",
    "preserves",
    "proj_eq",
    "realifier",
    "rform_multiplicity",
    "type_transformation",
    "verify_certificate",
]

__version__ = "0.1.0"
