"""Real forms of C^k via conjugate-linear involutions.

A conjugation is the map v -> S @ conj(v) with S @ conj(S) = I; its
fixed vectors form a real form whose projectivization is a copy of
RP^{k-1} inside CP^{k-1}.  Eigendata ask S to fix hyperbolic directions
and to swap elliptic pairs, which leaves S only k unknowns: take as base
k directions, closed under partners and independent, as unit columns
of V with pairing permutation P; then S = V diag(phi) P conj(V)^{-1}.
Each other datum v -> w asks that diag(P conj(x)) phi be parallel to
y, with x = V^{-1} v and y = V^{-1} w: k linear rows in phi.  One thin
SVD of width k gives the solutions, and S is an involution exactly when
phi_i conj(phi_P(i)) is one positive real for all i.  A solution space
of more dimensions splits over blocks of eigen-coordinates that no
datum links; each block is normalized on its own to give a witness.
When the data span fewer than k dimensions, fixed directions complete
the base and S stays free on them.

This module solves that system, counts how many projective real forms
the data allow, and builds the change of basis that realifies a
compatible collection.  ``conjugation_witness`` takes eigendirection
rows with partner indices and uses its first k rows as the base, as
``decide`` orders them (the best-conditioned eigenbasis first);
``conjugation_from_eigendata`` and ``rform_multiplicity`` take
``EigenDatum`` lists and build the base greedily from them.  Both share
one solve.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import NoConjugation, NumericalDegeneracy, UnderdeterminedConjugation
from .projlin import ProjPoint, matrices_proportional, norms, proj_dists


@dataclass(frozen=True)
class Conjugation:
    """Antilinear involution v -> S @ conj(v), normalized S @ conj(S) = I."""

    S: np.ndarray

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.S @ np.conj(v)


@dataclass(frozen=True)
class EigenDatum:
    """One projective direction with its conjugation behaviour.

    ``partner`` is None for hyperbolic directions (fixed by the
    conjugation) and the paired ProjPoint for elliptic ones (swapped).
    """

    direction: ProjPoint
    partner: ProjPoint | None = None

    @property
    def hyperbolic(self) -> bool:
        return self.partner is None


class Multiplicity(Enum):
    ZERO = "zero"
    ONE = "one"
    INFINITE = "infinite"


def hyperbolic_datum(p) -> EigenDatum:
    return EigenDatum(direction=p if isinstance(p, ProjPoint) else ProjPoint(p))


def elliptic_pair(p, q) -> tuple[EigenDatum, EigenDatum]:
    pp = p if isinstance(p, ProjPoint) else ProjPoint(p)
    qq = q if isinstance(q, ProjPoint) else ProjPoint(q)
    return EigenDatum(direction=pp, partner=qq), EigenDatum(direction=qq, partner=pp)


def _base(data, fixed, src, tgt, rank_tol):
    """Greedy base of an eigendata solve: each datum whose direction (with
    its partner, for a pair) is independent of the base so far joins it,
    one QR per datum.

    ``fixed`` flags the hyperbolic data; ``src`` and ``tgt`` hold each
    datum's unit direction and target as rows.  Returns (rest, base, perm,
    m): the indices of the data the base does not account for (a datum
    taken and the mirror datum of a pair taken are accounted for), the k
    base columns, the permutation pairing them, and the number m of them
    that are data; fixed directions complete the base past m.
    """
    k = src.shape[1]
    first, mirror_of = {}, {}
    for n, d in enumerate(data):
        if not fixed[n]:
            m = first.get((id(d.partner), id(d.direction)))
            if m is None:
                first[id(d.direction), id(d.partner)] = n
            else:
                mirror_of[n] = m
    taken, cols, perm, q = set(), [], [], np.zeros((k, 0), dtype=complex)
    for n in range(len(data)):
        c = np.array([src[n]] if fixed[n] else [src[n], tgt[n]]).T
        if n in mirror_of or c.shape[1] > k - len(cols):
            continue
        qr, r = np.linalg.qr(c - q @ (q.conj().T @ c))
        if (np.abs(np.diag(r)) > rank_tol).all():
            taken.add(n)
            perm += [len(cols)] if fixed[n] else [len(cols) + 1, len(cols)]
            cols += list(c.T)
            q = np.hstack([q, qr])
    m = len(cols)
    base = np.hstack([np.array(cols).reshape(m, k).T, np.linalg.qr(q, mode="complete")[0][:, m:]])
    rest = [n for n in range(len(data)) if n not in taken and mirror_of.get(n) not in taken]
    return rest, base, perm + list(range(m, k)), m


def _blocks(touch, perm):
    """Eigen-coordinates linked by the data: the lowest coordinate of each
    one's block, where a datum links the coordinates it touches and their
    partners link the mirrored set."""
    k = touch.shape[1]
    touch = touch | touch[:, perm]
    link = (touch.T.astype(float) @ touch + np.eye(k)) > 0
    for _ in range(k.bit_length()):
        link = (link.astype(float) @ link) > 0
    return link.argmax(axis=1)


def _involution(phi, block, perm):
    """Rescale phi block by block so that phi_i conj(phi_P(i)) = 1, or
    raise NoConjugation.  Within a block the products must be one value:
    a positive real when P keeps the block, any nonzero number when P
    swaps it with another (that block absorbs it)."""
    psi = phi * np.conj(phi[perm])
    scale = np.ones(phi.size, dtype=complex)
    for b in sorted(set(block.tolist())):
        members = block == b
        other = block[perm[int(members.argmax())]]
        if other < b:
            continue
        vals = psi[members]
        c = vals.sum() / vals.size
        if np.linalg.norm(vals - c) > 1e-7 * max(np.linalg.norm(vals), 1e-300):
            raise NoConjugation("solution carries no involution (phi_i conj(phi_P(i)) not one value)")
        if other != b:
            scale[block == other] = 1 / np.conj(c)
        elif abs(c.imag) > 1e-7 * max(abs(c), 1e-300) or c.real <= 0:
            raise NoConjugation("solution carries no involution (phi_i conj(phi_P(i)) not a positive scalar)")
        else:
            scale[members] = 1 / np.sqrt(c.real)
    return phi * scale


def _check_solution(S: np.ndarray, src, tgt, cfg) -> bool:
    """Does v -> S conj(v) send every direction (rows of src) to its
    target (rows of tgt), within 1e-6 in proj_dist?"""
    img = np.conj(src) @ S.T
    if not np.isfinite(img).all() or min(np.abs(img).max(axis=1).tolist()) <= cfg.deg_tol:
        return False
    return False not in (proj_dists(img, tgt) <= 1e-6).tolist()


def _solve(src, tgt, swapped, pick, cfg):
    """The conjugation sending each row of ``src`` to the same row of
    ``tgt`` (rows flagged ``swapped`` are elliptic), and the dimension of
    its solution space.  ``pick(unit_src, unit_tgt)`` chooses the base and
    returns (rest, base, perm, m) as ``_base`` does.  Raises NoConjugation
    when no conjugation qualifies and NumericalDegeneracy when the data
    leave the span of the m data columns of the base."""
    k = src.shape[1]
    if True in (proj_dists(src[swapped], tgt[swapped]) < cfg.sep_tol).tolist():
        raise NoConjugation("elliptic pair members are projectively equal; nothing can swap them")
    unit_src = src / norms(src, 1)[:, None]
    unit_tgt = tgt / norms(tgt, 1)[:, None]
    rest, base, perm, m = pick(unit_src, unit_tgt)
    perm = np.array(perm)
    inv = np.linalg.inv(base)
    if len(rest):
        xy = inv @ np.vstack([unit_src[rest], unit_tgt[rest]]).T
        xy /= norms(xy, 0)
        x, y = np.conj(xy[:, :len(rest)].T[:, perm]), xy[:, len(rest):].T
        rows = (np.eye(k) - y[:, :, None] * np.conj(y)[:, None, :]) * x[:, None, :]
        _, s, vh = np.linalg.svd(rows.reshape(-1, k), full_matrices=False)
        # the rows are built from unit vectors: rows of rounding noise alone
        # (data on the base directions) must not count as constraints
        null = vh[int(np.sum(s > cfg.rank_tol * max(s[0], 1.0))):].conj().T
        touch = (np.abs(x) > 1e-7) | (np.abs(y) > 1e-7)
        if touch[:, m:].any():
            raise NumericalDegeneracy("the eigendata have no partner-closed base of their span")
    else:
        null = np.eye(k, dtype=complex)
        touch = np.zeros((0, k), dtype=bool)
    n = null.shape[1]
    if n == 0:
        raise NoConjugation("antilinear system is inconsistent")
    if n == 1:
        block, phi = np.zeros(k, dtype=int), null[:, 0]
    else:
        # one solution per block of linked eigen-coordinates: pick for
        # each block the null vector that carries most of it
        block = _blocks(touch, perm)
        weight = (block[:, None] == np.arange(k)).T.astype(float) @ np.abs(null) ** 2
        if (weight.sum(axis=1)[np.unique(block)] <= 0.5).any():
            raise NoConjugation("every solution vanishes on a block of eigen-coordinates")
        phi = null[np.arange(k), weight.argmax(axis=1)[block]]
    phi = _involution(phi, block, perm)
    S = (base * phi)[:, perm] @ np.conj(inv)
    if not _check_solution(S, src, tgt, cfg):
        raise NoConjugation("solution fails to reproduce the eigendata")
    return Conjugation(S=S), n + (k - m) * (k - 1)


def conjugation_from_eigendata(data, cfg: Tolerances = DEFAULT_TOLERANCES) -> Conjugation:
    """Solve for the conjugation respecting the given eigendata.

    Hyperbolic directions must be fixed projectively, elliptic pairs
    swapped.  Raises NoConjugation when the system is inconsistent (or
    only quaternionic) and UnderdeterminedConjugation, carrying one
    witness, when infinitely many projective real forms qualify.
    Raises NumericalDegeneracy when no partner-closed set of the
    directions, taken greedily in order, spans all of them, and
    ValueError on empty data.
    """
    data = list(data)
    if not data:
        raise ValueError("empty eigendata")
    fixed = [d.hyperbolic for d in data]
    src = np.array([d.direction.coords for d in data])
    tgt = np.array([(d.direction if f else d.partner).coords for d, f in zip(data, fixed)])
    conj, d_free = _solve(src, tgt, ~np.array(fixed),
                          lambda us, ut: _base(data, fixed, us, ut, cfg.rank_tol), cfg)
    if d_free > 1:
        raise UnderdeterminedConjugation(
            f"solution space has {2 * d_free - 2} real dimensions beyond gauge",
            witness=conj,
            free_real_dims=2 * d_free - 2,
        )
    return conj


def conjugation_witness(directions, partners, cfg: Tolerances = DEFAULT_TOLERANCES):
    """The conjugation that fixes each row of ``directions`` whose partner
    index is its own and sends every other row to the row ``partners``
    names, solved with the first k rows as the base (they must be
    independent and closed under partners); no base is searched.

    Returns (Conjugation, Multiplicity.ONE or Multiplicity.INFINITE).
    Raises NoConjugation when no real form qualifies.
    """
    k = directions.shape[1]
    conj, d_free = _solve(directions, directions[partners], partners != np.arange(len(partners)),
                          lambda us, _: (np.arange(k, len(us)), us[:k].T, partners[:k], k), cfg)
    return conj, Multiplicity.INFINITE if d_free > 1 else Multiplicity.ONE


def rform_multiplicity(data, cfg: Tolerances = DEFAULT_TOLERANCES) -> Multiplicity:
    """How many projective real forms respect the eigendata: 0, 1, oo."""
    try:
        conjugation_from_eigendata(data, cfg)
    except UnderdeterminedConjugation:
        return Multiplicity.INFINITE
    except NoConjugation:
        return Multiplicity.ZERO
    return Multiplicity.ONE


def preserves(m: np.ndarray, c: Conjugation, tol: float = 1e-7) -> bool:
    """Does the transformation commute with the conjugation projectively?

    Tests S @ conj(M) @ conj(S) against M up to a complex scalar; with
    the involution normalization conj(S) = S^{-1} this is the
    commutation criterion for preserving the associated real form.
    """
    n = c.S @ np.conj(m) @ np.conj(c.S)
    return matrices_proportional(m, n, tol)


def realifier(c: Conjugation, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Change of basis whose columns span the real form of ``c``.

    For every M preserving the conjugation, gamma^{-1} @ M @ gamma has a
    projectively real representative.  The 2k columns of
    [I + S, i(I - S)] are fixed by v -> S conj(v) and span its real form
    over R; the leading k left singular vectors of their real embedding
    give gamma, a real-orthonormal basis of that form (Re(gamma^H gamma)
    = I).
    """
    k = c.S.shape[0]
    eye = np.eye(k)
    m = np.hstack([eye + c.S, 1j * (eye - c.S)])
    u, s, _ = np.linalg.svd(np.vstack([m.real, m.imag]))
    if not s[k - 1] > 1e-6 * s[0]:
        raise NumericalDegeneracy("could not assemble an independent fixed basis")
    return u[:k, :k] + 1j * u[k:, :k]
