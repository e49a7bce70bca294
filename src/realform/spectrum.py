"""Eigenvalue classification for conjugacy into PGL(k,R).

A spectrum is compatible when some real line ``l`` through the origin
(angle theta in [0, pi)) has every eigenvalue either on ``l`` or
matched with a partner by reflection about ``l``.  On-line eigenvalues
and their eigendirections are called hyperbolic, reflected pairs
elliptic.  The admissible angles form a finite set: each is either the
argument of an eigenvalue mod pi or the half-sum of two arguments mod
pi, so candidates are enumerated and validated exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .projlin import EigenSystem, modulus, require_separated, upper_pairs

HYPERBOLIC = "hyperbolic"
ELLIPTIC = "elliptic"

KIND_HYPERBOLIC = "strictly_hyperbolic"
KIND_ELLIPTIC = "strictly_elliptic"
KIND_MIXED = "mixed"
KIND_INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class Labeling:
    """Hyperbolic/elliptic assignment valid for one admissible line."""

    theta: float
    labels: tuple          # HYPERBOLIC / ELLIPTIC per input index
    pairing: tuple         # sorted (i, j) index pairs for elliptic partners


@dataclass(frozen=True)
class SpectralClass:
    compatible: bool
    line_angles: tuple     # admissible theta values, ascending in [0, pi)
    labelings: tuple       # one Labeling per admissible angle
    generic: bool
    kind: str

    @property
    def labels(self):
        return self.labelings[0].labels if self.labelings else ()

    @property
    def pairing(self):
        return self.labelings[0].pairing if self.labelings else ()


def _greedy_labeling(theta, on_line, err, tol):
    """Labeling for one candidate angle, or None if it does not work: each
    off-line eigenvalue in index order takes the closest free partner by
    reflection error ``err[i][j]`` (order-dependent, hence a plain loop)."""
    k = len(on_line)
    labels = [HYPERBOLIC if on else None for on in on_line]
    taken = list(on_line)
    pairing = []
    for i in range(k):
        if taken[i]:
            continue
        best_j, best_err = None, math.inf
        for j, e in enumerate(err[i]):
            if j != i and not taken[j] and e < best_err:
                best_j, best_err = j, e
        if best_j is None or best_err >= tol:
            return None
        taken[i] = taken[best_j] = True
        labels[i] = labels[best_j] = ELLIPTIC
        pairing.append((min(i, best_j), max(i, best_j)))
    return Labeling(theta=theta, labels=tuple(labels), pairing=tuple(sorted(pairing)))


def classify_eigenvalues(lams, cfg: Tolerances = DEFAULT_TOLERANCES) -> SpectralClass:
    """Classify a spectrum: admissible lines, labels, pairing, genericity.

    Raises RepeatedEigenvalues when two inputs are projectively equal.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    k = lams.size
    require_separated(lams, cfg.sep_tol, "eigenvalues {:.6g}, {:.6g} coincide")

    # candidates: the arguments and the pairwise half-sums of arguments, mod pi
    pi_, pj = upper_pairs(k)
    args = np.arctan2(lams.imag, lams.real)
    raw = args.tolist() + ((args[pi_] + args[pj]) / 2.0).tolist()
    mod = [y + math.pi if y < 0 else y for y in (math.fmod(x, math.pi) for x in raw)]
    thetas = sorted(mod)
    at = [math.fmod(t, math.pi) for t in thetas]   # a candidate rounded up to pi sits at 0
    n = len(thetas)
    grid = np.array(mod[:k] + at + thetas)
    # on_line[c, i]: lam_i lies on the line at candidate angle c
    d = np.abs(grid[:k] - grid[k:k + n, None])
    on_line = np.minimum(d, np.pi - d) < cfg.angle_tol
    # err[c, i, j]: relative distance of lam_j from lam_i reflected about candidate c
    mag = modulus(lams)
    top = np.maximum(mag[:, None], mag)
    reflect = np.exp(2j * grid[k + n:])[:, None] * np.conj(lams)
    err = modulus(lams - reflect[:, :, None]) / top
    # a labeling pairs each off-line lam_i with some lam_j, in one order or the
    # other; a candidate where some lam_i has no such partner cannot work
    near = err < cfg.angle_tol
    near |= near.transpose(0, 2, 1)
    viable = np.logical_and.reduce(on_line | np.logical_or.reduce(near, axis=2), axis=1).tolist()

    labelings = []
    seen = []
    for c, ok in enumerate(viable):
        t = at[c]
        if not ok or any(min(abs(t - s), math.pi - abs(t - s)) < cfg.angle_tol for s in seen):
            continue
        lab = _greedy_labeling(thetas[c], on_line[c].tolist(), err[c].tolist(), cfg.angle_tol)
        if lab is not None:
            labelings.append(lab)
            seen.append(t)

    compatible = bool(labelings)
    # A pair on a common line with equal magnitudes (i.e. lam_j = -lam_i)
    # is both hyperbolic for one line and elliptic for another: not generic.
    forbidden_pair = True in (modulus(lams[:, None] + lams) <= cfg.sep_tol * top)[pi_, pj].tolist()
    generic = bool(compatible and len(labelings) == 1 and not forbidden_pair)

    kinds = [set(lab.labels) for lab in labelings]
    kind = (KIND_INCOMPATIBLE if not compatible else KIND_HYPERBOLIC if {HYPERBOLIC} in kinds
            else KIND_ELLIPTIC if {ELLIPTIC} in kinds else KIND_MIXED)

    return SpectralClass(
        compatible=compatible,
        line_angles=tuple(lab.theta for lab in labelings),
        labelings=tuple(labelings),
        generic=generic,
        kind=kind,
    )


def type_transformation(es: EigenSystem, cfg: Tolerances = DEFAULT_TOLERANCES) -> SpectralClass:
    """Spectral class of a transformation; labels index its eigendirections."""
    return classify_eigenvalues(es.eigenvalues, cfg)
