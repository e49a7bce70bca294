"""Flags of nested subspaces, genericity predicates, and quotients.

A flag is an ordered spanning list; the j-th subspace is the span of
the first j vectors.  Flag pairs use the reversed ordering.  Quotients
by direct sums of flag parts produce the CP^1 and CP^2 configurations
whose cross ratios and triple ratios are the coordinates of interest.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GenericityViolation
from .projlin import EigenSystem, ProjPoint


@dataclass(frozen=True)
class Flag:
    """Ordered independent spanning vectors; rows of ``vectors``."""

    vectors: np.ndarray

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def reversed(self) -> "Flag":
        return Flag(vectors=self.vectors[::-1].copy())


def _unit_row(v) -> np.ndarray:
    """A flag row: the vector scaled to largest-magnitude coordinate 1."""
    a = v.coords if isinstance(v, ProjPoint) else np.asarray(v, dtype=complex).ravel()
    return a / np.abs(a).max()


def make_flag(vectors, cfg: Tolerances = DEFAULT_TOLERANCES) -> Flag:
    m = np.array([_unit_row(v) for v in vectors])
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= cfg.rank_tol * s[0]:
        raise GenericityViolation("flag spanning vectors are linearly dependent")
    return Flag(vectors=m)


def point_flag(p, cfg: Tolerances = DEFAULT_TOLERANCES) -> Flag:
    """Height-1 flag through a single projective point."""
    return make_flag([p], cfg)


@dataclass(frozen=True)
class FlagPair:
    flag: Flag
    reverse: Flag


def flag_pair_from_eigensystem(es: EigenSystem, order=None,
                               cfg: Tolerances = DEFAULT_TOLERANCES) -> FlagPair:
    """Flags from an eigenbasis in the given index order, and its reverse."""
    k = es.dim
    order = list(range(k)) if order is None else list(order)
    if sorted(order) != list(range(k)):
        raise ValueError("order must be a permutation of the eigendirection indices")
    f = make_flag([es.directions[i] for i in order], cfg)
    return FlagPair(flag=f, reverse=f.reversed())


def _compositions(heights, k):
    """Tuples (i_1, ..., i_m) with 0 <= i_j <= heights[j] and sum k, in
    lexicographic order."""
    if not heights:
        return [()] if k == 0 else []
    rest = heights[1:]
    low = max(0, k - sum(rest))
    return [(i,) + tail for i in range(low, min(heights[0], k) + 1)
            for tail in _compositions(rest, k - i)]


@functools.lru_cache(maxsize=None)
def _composition_rows(heights: tuple, k: int) -> np.ndarray:
    """Row indices into the flags' stacked vectors, one row of k per
    composition: the leading i_j vectors of each flag in flag order."""
    starts = np.cumsum((0,) + heights[:-1])
    idx = np.array([[s + r for s, n in zip(starts, combo) for r in range(n)]
                    for combo in _compositions(heights, k)], dtype=np.intp).reshape(-1, k)
    idx.flags.writeable = False
    return idx


def _full_rank_each(stack: np.ndarray, rank_tol: float) -> np.ndarray:
    """Per-matrix full-rank test s_min > rank_tol * s_max, one batched SVD."""
    s = np.linalg.svd(stack, compute_uv=False)
    return s[:, -1] > rank_tol * s[:, 0]


def generic_position(flags, cfg: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Do all dimension-compatible direct sums of flag parts fill C^k?

    For every composition (i_1, ..., i_m) with sum k and i_j at most
    each flag's height, the stacked leading vectors must have rank k,
    read as s_min > rank_tol * s_max.  All compositions go through one
    batched SVD.
    """
    flags = list(flags)
    k = flags[0].dim
    idx = _composition_rows(tuple(f.height for f in flags), k)
    rows = np.vstack([f.vectors for f in flags])
    return bool(np.all(_full_rank_each(rows[idx], cfg.rank_tol)))


def first_nongeneric_line(a: Flag, lines, c: Flag, d,
                          cfg: Tolerances = DEFAULT_TOLERANCES) -> int | None:
    """Index of the first line v for which (A, span v, C, span d) is not
    in generic position, or None when every line passes.

    The compositions without the line are shared by every line and are
    evaluated once; when one of them fails, every line fails and the
    answer is 0.  All stacks go through one batched SVD.
    """
    lines = [_unit_row(v) for v in lines]
    if not lines:
        return None
    k = a.dim
    idx = _composition_rows((a.height, 1, c.height, 1), k)
    with_line = np.any(idx == a.height, axis=1)
    rows = np.vstack([a.vectors, lines[0], c.vectors, _unit_row(d)])
    per_line = np.repeat(rows[None], len(lines), axis=0)
    per_line[:, a.height] = lines
    shared = rows[idx[~with_line]]
    ok = _full_rank_each(
        np.concatenate([shared, per_line[:, idx[with_line]].reshape(-1, k, k)]), cfg.rank_tol)
    if not ok[:len(shared)].all():
        return 0
    bad = np.flatnonzero(~ok[len(shared):].reshape(len(lines), -1).all(axis=1))
    return int(bad[0]) if bad.size else None


def generic_with_point(a: Flag, v, c: Flag, d,
                       cfg: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Genericity of (A, span v, C, span d) with the lines as 1-flags."""
    return first_nongeneric_line(a, [v], c, d, cfg) is None


def _complement_basis(rows: np.ndarray, k: int, cfg) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the row span."""
    if rows.shape[0] == 0:
        return np.eye(k, dtype=complex)
    _, s, vh = np.linalg.svd(np.conj(rows))
    rank = int(np.sum(s > cfg.rank_tol * s[0]))
    if rank != rows.shape[0]:
        raise GenericityViolation("quotient subspace is degenerate")
    return vh[rank:].conj().T


def _project(basis: np.ndarray, v: np.ndarray, cfg, what: str) -> np.ndarray:
    img = basis.conj().T @ v
    if np.linalg.norm(img) <= cfg.rank_tol * np.linalg.norm(v):
        raise GenericityViolation(f"{what} lies in the quotiented subspace")
    return img


@dataclass(frozen=True)
class LineConfig:
    """Four labelled points of CP^1 coming from a quotient."""

    a: ProjPoint
    b: ProjPoint
    c: ProjPoint
    d: ProjPoint
    provenance: tuple | None = None

    @property
    def points(self):
        return (self.a, self.b, self.c, self.d)


def _cp1_step(a: Flag, c: Flag, i: int, j: int, cfg):
    """Complement basis of A_i + C_j and the images of the next A and C steps."""
    k = a.dim
    rows = np.vstack([a.vectors[:i], c.vectors[:j]]) if i + j else np.zeros((0, k), dtype=complex)
    basis = _complement_basis(rows, k, cfg)
    return (basis, _project(basis, a.vectors[i], cfg, "next A step"),
            _project(basis, c.vectors[j], cfg, "next C step"))


def quotient_cp1(a: Flag, b1, c: Flag, d1, i: int, j: int,
                 cfg: Tolerances = DEFAULT_TOLERANCES) -> LineConfig:
    """Project to C^k / (A_i + C_j), a projective line.

    Images: the next step of A, the line b1, the next step of C, the
    line d1.  Requires i + j = k - 2.
    """
    k = a.dim
    if i + j != k - 2 or i < 0 or j < 0:
        raise ValueError("need i + j = k - 2 with i, j >= 0")
    if i + 1 > a.height or j + 1 > c.height:
        raise ValueError("flag heights too small for the requested quotient")
    b1 = b1 if isinstance(b1, ProjPoint) else ProjPoint(b1)
    d1 = d1 if isinstance(d1, ProjPoint) else ProjPoint(d1)
    basis, pa, pc = _cp1_step(a, c, i, j, cfg)
    pb = _project(basis, b1.coords, cfg, "B line")
    pd = _project(basis, d1.coords, cfg, "D line")
    return LineConfig(
        a=ProjPoint(pa, cfg), b=ProjPoint(pb, cfg), c=ProjPoint(pc, cfg), d=ProjPoint(pd, cfg),
        provenance=(i, j),
    )


def quotient_cp1_lines(a: Flag, lines, c: Flag, d1: ProjPoint,
                       cfg: Tolerances = DEFAULT_TOLERANCES) -> list:
    """quotient_cp1 at every (i, k - 2 - i), for each of the ``lines``.

    Returns one list of k - 1 LineConfigs per line.  The complement
    bases and the images of the A step, the C step and d1 depend only on
    i, so they are computed once and every line is projected onto them.
    """
    k = a.dim
    if min(a.height, c.height) < k - 1:
        raise ValueError("flag heights too small for the requested quotient")
    steps = []
    for i in range(k - 1):
        basis, pa, pc = _cp1_step(a, c, i, k - 2 - i, cfg)
        pd = _project(basis, d1.coords, cfg, "D line")
        steps.append((basis, ProjPoint(pa, cfg), ProjPoint(pc, cfg), ProjPoint(pd, cfg)))
    return [[LineConfig(a=pa, b=ProjPoint(_project(basis, b1.coords, cfg, "B line"), cfg),
                        c=pc, d=pd, provenance=(i, k - 2 - i))
             for i, (basis, pa, pc, pd) in enumerate(steps)]
            for b1 in lines]


def quotient_cp2(a: Flag, b: Flag, c: Flag, i: int, j: int, l: int,
                 cfg: Tolerances = DEFAULT_TOLERANCES):
    """Project to C^k / (A_i + C_j + B_l), a projective plane.

    Returns three (line, plane) pairs as 2-row arrays in quotient
    coordinates: each flag advances by one and two steps over the
    quotiented sum.  Requires i + j + l = k - 3.
    """
    k = a.dim
    if i + j + l != k - 3 or min(i, j, l) < 0:
        raise ValueError("need i + j + l = k - 3 with i, j, l >= 0")
    for f, n in ((a, i), (c, j), (b, l)):
        if n + 2 > f.height:
            raise ValueError("flag height too small for the requested quotient")
    rows = np.vstack([a.vectors[:i], c.vectors[:j], b.vectors[:l]])
    basis = _complement_basis(rows, k, cfg)

    def two_step(f: Flag, n: int, name: str) -> np.ndarray:
        u1 = _project(basis, f.vectors[n], cfg, f"{name} line")
        u2 = basis.conj().T @ f.vectors[n + 1]
        m = np.vstack([u1, u2])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= cfg.rank_tol * s[0]:
            raise GenericityViolation(f"{name} plane collapses in the quotient")
        return m

    return two_step(a, i, "A"), two_step(b, l, "B"), two_step(c, j, "C")


def mirrored_pair_flag(pairs, hyps, cfg: Tolerances = DEFAULT_TOLERANCES) -> Flag:
    """Flag placing pair partners symmetrically about the middle.

    Order (p1, p2, ..., pm, h..., pm', ..., p2', p1'), so the reversed
    flag lists the partners: conjugation carries each step of the flag
    to the same step of its reverse.
    """
    front = [p for p, _ in pairs]
    back = [q for _, q in reversed(pairs)]
    return make_flag(front + list(hyps) + back, cfg)
