"""Eigenvalue classification for conjugacy into PGL(k,R).

A spectrum is compatible when some real line ``l`` through the origin
(angle theta in [0, pi)) has every eigenvalue either on ``l`` or
matched with a partner by reflection about ``l``.  On-line eigenvalues
and their eigendirections are called hyperbolic, reflected pairs
elliptic.  The admissible angles form a finite set: each is either the
argument of an eigenvalue mod pi or the half-sum of two arguments mod
pi, so candidates are enumerated and validated exactly.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .projlin import EigenSystem, _close_pairs, _repeated, modulus, upper_pairs

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
    off-line eigenvalue in index order takes the first closest free partner
    by reflection error ``err[i][j]`` (order-dependent, hence a plain loop)."""
    free = [i for i, on in enumerate(on_line) if not on]
    pairing = []
    while free:
        i = free.pop(0)
        near = [j for j in free if err[i][j] < tol]
        if not near:
            return None
        j = min(near, key=err[i].__getitem__)
        free.remove(j)
        pairing.append((i, j))
    return Labeling(theta=theta, labels=tuple([HYPERBOLIC if on else ELLIPTIC for on in on_line]),
                    pairing=tuple(pairing))


def _reflection_errors(lams, theta, top):
    """err[b, i, j]: |lam_j - lam_i reflected about the line at theta[b]|
    over top[b, i, j] = max(|lam_i|, |lam_j|), for spectra lams (B, k)."""
    reflect = np.exp(2j * theta)[:, None] * np.conj(lams)
    return modulus(lams[:, None, :] - reflect[:, :, None]) / top


@functools.lru_cache(maxsize=None)
def _sources(k: int) -> tuple:
    """(a, b, flat, weight, upper) for spectra of k values.  Candidate
    source s is the half-sum of the arguments a[s] and b[s]: the argument
    itself for s < k (a[s] = b[s] = s), then the pairs of
    ``upper_pairs(k)``; flat[s] is (a[s], b[s]) in a flattened k x k array.
    weight[s] is how many values s can put on its line (1) or pair about it
    (2); upper[i, j] is i < j.  Shared, so read-only."""
    i, j = upper_pairs(k)
    a, b = np.concatenate((np.arange(k), i)), np.concatenate((np.arange(k), j))
    out = a, b, a * k + b, np.where(a == b, 1.0, 2.0), np.triu(np.ones((k, k), dtype=bool), 1)
    for x in out:
        x.flags.writeable = False
    return out


def classify_eigenvalues(lams, cfg: Tolerances = DEFAULT_TOLERANCES) -> SpectralClass:
    """Classify a spectrum: admissible lines, labels, pairing, genericity;
    the one-spectrum case of :func:`classify_spectra`.

    Raises ValueError when the input is not a nonempty 1-D sequence or an
    entry is non-finite or zero, and RepeatedEigenvalues when two entries
    are projectively equal.
    """
    lams = np.asarray(lams, dtype=complex)
    if lams.ndim != 1 or not lams.size:
        raise ValueError(f"eigenvalues must be a nonempty 1-D sequence, got shape {lams.shape}")
    if not (np.isfinite(lams).all() and lams.all()):
        raise ValueError("eigenvalues must be finite and nonzero")
    if (close := _close_pairs(lams, cfg.sep_tol)).any():
        raise _repeated(lams, close, "eigenvalues {:.6g}, {:.6g} coincide")
    return classify_spectra(lams[None], cfg)[0]


def classify_spectra(lams: np.ndarray, cfg: Tolerances = DEFAULT_TOLERANCES) -> list:
    """SpectralClass of each row of lams (n, k), rows already separated.

    A screen runs on the whole stack, and so does the labeling of each
    spectrum's first candidate that passes it; only a spectrum with a
    candidate that this labeling leaves open tests candidates one by one.
    Every angle, reflection error and cut the classes show is computed as
    the candidate-by-candidate loop computes it (moduli by ``modulus``),
    so the classes are that loop's bit for bit; the screen is a necessary
    condition with room for rounding, so it drops only candidates whose
    labeling would fail.
    """
    (n, k), tol = lams.shape, cfg.angle_tol
    a, b, flat, weight, upper = _sources(k)
    # candidates: the arguments and the pairwise half-sums of arguments, mod pi
    args = np.arctan2(lams.imag, lams.real)
    mod = np.fmod((args.take(a, axis=1) + args.take(b, axis=1)) / 2.0, np.pi)
    np.add(mod, np.pi, out=mod, where=mod < 0)
    thetas = np.sort(mod, axis=1, kind="stable")   # -0.0 and 0.0 keep their order
    at = np.fmod(thetas, np.pi)   # a candidate rounded up to pi sits at 0
    # d[g, c, s]: angle from candidate c to source s
    d = np.abs(at[:, :, None] - mod[:, None, :])
    d = np.minimum(d, np.pi - d)
    mag = modulus(lams)
    top = np.maximum(mag[:, :, None], mag[:, None, :])
    # A pair on a common line with equal magnitudes (i.e. lam_j = -lam_i)
    # is both hyperbolic for one line and elliptic for another: not generic.
    nongeneric = ((modulus(lams[:, :, None] + lams[:, None, :]) <= cfg.sep_tol * top) & upper).any((1, 2))
    # The screen, a necessary condition: a labeling pairs the off-line lam
    # in disjoint pairs (i, j), each within tol by reflection, so each with
    # | |lam_i| - |lam_j| | < tol * top and its half-sum of arguments within
    # (pi / 4) * tol / sqrt(1 - tol) of the line; 2 * tol bounds both, with
    # room for rounding (past tol = 0.79 it passes every pair).  So the
    # arguments near the line and twice the close pairs with their half-sum
    # near it must number at least k (a pair with a NaN gap counts as close).
    loose = 2 * tol + 1e-12
    close = ~(np.abs(mag[:, :, None] - mag[:, None, :]) > loose * top).reshape(n, k * k).take(flat, axis=1)
    viable = np.matmul(d <= loose, (close * weight)[:, :, None])[:, :, 0] >= k
    # each spectrum's first viable candidate, and whether a labeling there
    # leaves no other viable one undeduped
    rows = np.arange(n)
    first = viable.argmax(axis=1)
    theta = thetas[rows, first]
    dd = np.abs(at - at[rows, first][:, None])
    alone = ~(viable & (np.minimum(dd, np.pi - dd) >= tol)).any(axis=1)

    classes = []
    for g, (t, on, e, only, ng) in enumerate(zip(
            theta.tolist(), (d[rows, first, :k] < tol).tolist(),
            _reflection_errors(lams, theta, top).tolist(), alone.tolist(), nongeneric.tolist())):
        lab = _greedy_labeling(t, on, e, tol)
        labelings = [lab] if lab else []
        if not (lab and only):
            # the later viable candidates in order, each skipped within tol of an accepted angle
            at_g, f = at[g].tolist(), int(first[g])
            taken = [at_g[f]] if lab else []
            for c in (np.flatnonzero(viable[g, f + 1:]) + f + 1).tolist():
                if any(min(abs(at_g[c] - x), math.pi - abs(at_g[c] - x)) < tol for x in taken):
                    continue
                e = _reflection_errors(lams[g:g + 1], thetas[g, c:c + 1], top[g:g + 1])[0].tolist()
                lab = _greedy_labeling(thetas[g, c].item(), (d[g, c, :k] < tol).tolist(), e, tol)
                if lab:
                    labelings.append(lab)
                    taken.append(at_g[c])
        kinds = [set(lab.labels) for lab in labelings]
        kind = (KIND_INCOMPATIBLE if not labelings else KIND_HYPERBOLIC if {HYPERBOLIC} in kinds
                else KIND_ELLIPTIC if {ELLIPTIC} in kinds else KIND_MIXED)
        classes.append(SpectralClass(
            compatible=bool(labelings),
            line_angles=tuple(lab.theta for lab in labelings),
            labelings=tuple(labelings),
            generic=len(labelings) == 1 and not ng,
            kind=kind,
        ))
    return classes


def type_transformation(es: EigenSystem, cfg: Tolerances = DEFAULT_TOLERANCES) -> SpectralClass:
    """Spectral class of a transformation; labels index its eigendirections."""
    return classify_eigenvalues(es.eigenvalues, cfg)
