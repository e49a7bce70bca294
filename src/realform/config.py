"""Tolerance configuration.

All geometric predicates in the package are exact statements about
projective configurations; float64 needs thresholds.  One frozen
dataclass carries them so every operation can be driven from a single
override point (library call sites, CLI flags, JSON options).  Every
threshold must be a positive, finite real number: a NaN or negative one
turns every test it gates into a silent failure, and a boolean is not a
threshold.
"""

import math
import numbers
from dataclasses import dataclass, replace, fields


@dataclass(frozen=True)
class Tolerances:
    deg_tol: float = 1e-10    # degeneracy gate: determinants, zero vectors
    eig_tol: float = 1e-8     # eigenvector residual bound
    sep_tol: float = 1e-6     # projective eigenvalue separation
    angle_tol: float = 1e-8   # radians, admissible-line dedup and matching
    rank_tol: float = 1e-8    # relative singular-value cutoff for rank
    cr_tol: float = 1e-7      # membership tests on cross/triple ratios
    cert_tol: float = 1e-7    # realness residual accepted for a certificate

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")

    def override(self, **kwargs):
        """Return a copy with the given fields replaced."""
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
