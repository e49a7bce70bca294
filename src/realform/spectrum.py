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

    @property
    def order(self) -> list:
        """The input indices, pairs first (each pair's two members in
        turn), then the hyperbolic ones."""
        return ([i for pair in self.pairing for i in pair]
                + [i for i, l in enumerate(self.labels) if l == HYPERBOLIC])


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
    """Classify a spectrum: admissible lines, labels, pairing, genericity;
    the one-spectrum case of :func:`classify_spectra`.

    Raises ValueError when an input is non-finite or zero, and
    RepeatedEigenvalues when two inputs are projectively equal.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if not (np.isfinite(lams).all() and lams.all()):
        raise ValueError("eigenvalues must be finite and nonzero")
    require_separated(lams, cfg.sep_tol, "eigenvalues {:.6g}, {:.6g} coincide")
    return classify_spectra(lams[None], cfg)[0]


def classify_spectra(lams: np.ndarray, cfg: Tolerances = DEFAULT_TOLERANCES) -> list:
    """SpectralClass of each row of lams (n, k), rows already separated.

    Every candidate test runs on the whole stack; only the dedup of
    accepted angles and the greedy labeling stay per spectrum.
    """
    n, k = lams.shape
    # candidates: the arguments and the pairwise half-sums of arguments, mod pi
    pi_, pj = upper_pairs(k)
    args = np.arctan2(lams.imag, lams.real)
    mod = np.fmod(np.concatenate((args, (args[:, pi_] + args[:, pj]) / 2.0), axis=1), np.pi)
    np.add(mod, np.pi, out=mod, where=mod < 0)
    thetas = np.sort(mod, axis=1, kind="stable")   # -0.0 and 0.0 keep their order
    at = np.fmod(thetas, np.pi)   # a candidate rounded up to pi sits at 0
    # on_line[g, c, i]: lam_i lies on the line at candidate angle c
    d = np.abs(mod[:, None, :k] - at[:, :, None])
    on_line = np.minimum(d, np.pi - d) < cfg.angle_tol
    # err[g, c, i, j]: relative distance of lam_j from lam_i reflected about candidate c
    mag = modulus(lams)
    top = np.maximum(mag[:, :, None], mag[:, None, :])
    reflect = np.exp(2j * thetas)[:, :, None] * np.conj(lams)[:, None, :]
    err = modulus(lams[:, None, None, :] - reflect[..., None]) / top[:, None]
    # a labeling pairs each off-line lam_i with some lam_j, in one order or the
    # other; a candidate where some lam_i has no such partner cannot work
    near = err < cfg.angle_tol
    near |= near.transpose(0, 1, 3, 2)
    viable = np.logical_and.reduce(on_line | np.logical_or.reduce(near, axis=3), axis=2)
    # A pair on a common line with equal magnitudes (i.e. lam_j = -lam_i)
    # is both hyperbolic for one line and elliptic for another: not generic.
    forbidden = modulus(lams[:, :, None] + lams[:, None, :]) <= cfg.sep_tol * top
    forbidden = forbidden[:, pi_, pj]

    classes = []
    for g, (ok, theta, at_g, nongeneric) in enumerate(zip(
            viable.tolist(), thetas.tolist(), at.tolist(), forbidden.tolist())):
        labelings = []
        for c in range(len(ok)):   # ok[c]: viable, and no labeling's angle within angle_tol
            if not ok[c]:
                continue
            lab = _greedy_labeling(theta[c], on_line[g, c].tolist(), err[g, c].tolist(),
                                   cfg.angle_tol)
            if lab is not None:
                labelings.append(lab)
                ok = [v and not min(abs(t - at_g[c]), math.pi - abs(t - at_g[c])) < cfg.angle_tol
                      for v, t in zip(ok, at_g)]

        compatible = bool(labelings)
        kinds = [set(lab.labels) for lab in labelings]
        kind = (KIND_INCOMPATIBLE if not compatible else KIND_HYPERBOLIC if {HYPERBOLIC} in kinds
                else KIND_ELLIPTIC if {ELLIPTIC} in kinds else KIND_MIXED)
        classes.append(SpectralClass(
            compatible=compatible,
            line_angles=tuple(lab.theta for lab in labelings),
            labelings=tuple(labelings),
            generic=compatible and len(labelings) == 1 and True not in nongeneric,
            kind=kind,
        ))
    return classes


def type_transformation(es: EigenSystem, cfg: Tolerances = DEFAULT_TOLERANCES) -> SpectralClass:
    """Spectral class of a transformation; labels index its eigendirections."""
    return classify_eigenvalues(es.eigenvalues, cfg)
