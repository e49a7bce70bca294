"""Flags of nested subspaces, genericity predicates, and quotients.

A flag is its (height, k) array of spanning rows, as ``make_flag``
returns it: the j-th subspace is the span of the first j rows, and a
flag pair is a flag f and its reverse f[::-1].  Quotients by direct sums
of flag parts produce the CP^1 and CP^2 configurations whose cross
ratios and triple ratios are the coordinates of interest:
``quotient_cp1`` returns its four points of CP^1 as a tuple.

Against a flag pair (A, C = A reversed) a line needs no quotient: its
coordinates x in the basis of A's vectors (the eigen-coordinate frame
when A is a generator's eigenflag) carry every CP^1 quotient, as the
consecutive pairs (x_i, x_{i+1}).  ``first_nongeneric_coords`` tests
genericity in that frame in closed form; ``quotient_cp1`` and
``quotient_cp2`` build one quotient of arbitrary flags, by SVD.  In the
same frame a flag is its coordinate rows and every direct sum with A's
and C's parts is a minor of them: ``frame_generic`` checks many flags
against (A, C, D) from those minors, with ``generic_position``'s answer.
``generic_position`` is the definition itself, one SVD per direct sum;
``frame_generic`` alone screens, and sends to the SVD only the direct
sums its bounds do not clear.
"""

import functools
import itertools

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import GenericityViolation
from .projlin import EigenSystem, ProjPoint, norms


def make_flag(vectors, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The flag's (height, k) rows: the vectors, each scaled to
    largest-magnitude coordinate 1."""
    m = np.array([v.coords if isinstance(v, ProjPoint) else np.asarray(v, dtype=complex).ravel()
                  for v in vectors])
    m = m / np.abs(m).max(axis=1, keepdims=True)
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= cfg.rank_tol * s[0]:
        raise GenericityViolation("flag spanning vectors are linearly dependent")
    return m


def point_flag(p, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Height-1 flag through a single projective point."""
    return make_flag([p], cfg)


def flag_pair_from_eigensystem(es: EigenSystem, cfg: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """The flag of an eigenbasis in eigenvalue order, and its reverse."""
    f = make_flag(es.directions, cfg)
    return f, f[::-1]


def _compositions(heights, k):
    """Tuples (i_1, ..., i_m) with 0 <= i_j <= heights[j] and sum k, in
    lexicographic order."""
    return [c for c in itertools.product(*(range(h + 1) for h in heights)) if sum(c) == k]


@functools.lru_cache(maxsize=None)
def _composition_rows(heights: tuple, k: int) -> np.ndarray:
    """Row indices into the flags' stacked vectors, one row of k per
    composition: the leading i_j vectors of each flag in flag order."""
    starts = np.cumsum((0,) + heights[:-1])
    combos = _compositions(heights, k)
    idx = np.array([[s + r for s, n in zip(starts, combo) for r in range(n)]
                    for combo in combos], dtype=np.intp).reshape(len(combos), k)
    idx.flags.writeable = False
    return idx


def generic_position(flags, cfg: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Do all dimension-compatible direct sums of flag parts fill C^k?

    For every composition (i_1, ..., i_m) with sum k and i_j at most
    each flag's height, the stacked leading vectors M must have rank k,
    read as s_min > rank_tol * s_max: one batched SVD of every stack.
    """
    flags = list(flags)
    stacks = np.vstack(flags)[_composition_rows(tuple(len(f) for f in flags), flags[0].shape[1])]
    s = np.linalg.svd(stacks, compute_uv=False)
    return bool((s[:, -1] > cfg.rank_tol * s[:, 0]).all())


@functools.lru_cache(maxsize=None)
def window_table(heights: tuple, k: int):
    """The compositions (i, j, l, m) of k with parts at most ``heights``,
    for flags (A, B, C, D) with C = A reversed, in ``_compositions``'
    order, as a list and as the (4, C) array of their parts; and per
    minor size w = j + m > 0 the positions of the compositions of that
    size, their rows of [B; D] (B's first j, then D's first m, D's rows at
    offset k) and their columns [i, i + w).

    In the frame of A's vectors A's and C's rows are unit rows, so the
    stack of composition (i, j, l, m) has, up to sign and the factor
    det(A), the determinant of that minor (1 when w = 0).
    """
    comps = _compositions(heights, k)
    groups = []
    for w in range(1, k + 1):
        pos = [n for n, (_, j, _, m) in enumerate(comps) if j + m == w]
        if pos:
            rows = [[*range(comps[n][1]), *range(k, k + comps[n][3])] for n in pos]
            cols = [range(comps[n][0], comps[n][0] + w) for n in pos]
            groups.append((np.array(pos), np.array(rows), np.array(cols)))
    parts = np.array(comps, dtype=np.intp).reshape(-1, 4).T
    for table in [parts, *(t for group in groups for t in group)]:
        table.flags.writeable = False
    return comps, parts, groups


def frame_minors(z: np.ndarray, table) -> np.ndarray:
    """minors[n, c]: the minor of composition c of ``window_table``'s
    ``table`` in the frame rows z[n] = [B_n; D_n], one stacked
    determinant per minor size."""
    comps, _, groups = table
    out = np.ones((len(z), len(comps)), dtype=complex)
    for pos, rows, cols in groups:
        out[:, pos] = np.linalg.det(z[:, rows[:, :, None], cols[:, None, :]])
    return out


def frame_generic(a: np.ndarray, frame: np.ndarray, rcond: float, flags: np.ndarray,
                  cfg: Tolerances = DEFAULT_TOLERANCES):
    """Is (A, B_n, C, D) in generic position, for every flag B_n?

    ``a`` holds A's rows, C is A reversed, ``frame`` = inv(a) and
    ``rcond`` = s_min / s_max of a, above rank_tol; flags[n] holds B_n's
    rows and D is B_0 reversed.  Each composition's stack M is read in A's
    frame (``window_table``): M = M_f a, so s_min / s_max of M is at least
    rcond times that of M_f.  Up to row order M_f is [[I, 0, 0], [Y1, Y,
    Y3], [0, 0, I]] with Y the w x w minor, so its inverse is explicit:
    with S the squared Frobenius norm of [Y1, Y, Y3] (the leading rows of
    B_n and D it takes) and sigma <= s_min(Y),

        s_min(M_f) >= sigma / sqrt((k - w) sigma^2 + w + S),
        s_max(M_f) <= sqrt(k - w + S),

    and sigma = |det Y| ((w - 1) / S)^((w - 1) / 2) (Hong and Pan, "A
    lower bound for the smallest singular value", 1992, with ||Y||_F^2 <=
    S).  Their ratio times rcond is a lower bound of s_min / s_max of M,
    and M passes when it exceeds 2 * rank_tol; a stack it does not clear
    is screened again by the tighter 1 / (||M_f||_F ||M_f^-1||_F), one
    batched inverse, and only the stacks left, a NaN bound included, go
    to one batched SVD of M in the input space, ``generic_position``'s
    cut s_min > rank_tol * s_max.  The stacks of A's rows alone (w = 0)
    are a's rows reordered and pass with rcond.

    Returns the frame rows x = flags @ frame, the minors of every
    composition of ``window_table((k,) * 4, k)`` and the (F,) answers.
    """
    n, k = flags.shape[:2]
    table = window_table((k,) * 4, k)
    z = np.empty((n, 2 * k, k), dtype=complex)
    x = z[:, :k] = flags @ frame
    z[:, k:] = x[0, ::-1]
    minors = frame_minors(z, table)
    # squared Frobenius norms of the leading rows of each B_n, and of D
    sq = np.zeros((n + 1, k + 1))
    r2 = (x.conj() * x).real
    np.cumsum(r2.sum(axis=2), axis=1, out=sq[:n, 1:])
    np.cumsum(r2[0, ::-1].sum(axis=1), out=sq[n, 1:])
    _, j, _, m = table[1]
    s, w = sq[:n, j] + sq[n, m], j + m
    with np.errstate(all="ignore"):
        sigma = np.abs(minors) * ((w - 1) / s) ** ((w - 1) / 2)
        bound = rcond * sigma / np.sqrt(((k - w) * sigma ** 2 + w + s) * (k - w + s))
    bound[:, w == 0] = np.inf
    bound, c = bound.ravel(), len(w)

    def stacks(rest, a, b, d):   # the stacks of A = a, B_n = b[n], C, D = d at the flat positions rest
        stacked = np.concatenate([np.broadcast_to(a, b.shape), b, np.broadcast_to(a[::-1], b.shape),
                                  np.broadcast_to(d, b.shape)], axis=1)
        return stacked[rest[:, None] // c, _composition_rows((k,) * 4, k)[rest % c]]

    cut = 2 * cfg.rank_tol   # the factor absorbs the rounding of the determinants and inverses
    ok = bound > cut
    rest = np.flatnonzero(~ok)
    if rest.size:
        mf = stacks(rest, np.eye(k), x, x[0, ::-1])
        try:
            with np.errstate(all="ignore"):
                ok[rest] = rcond / (norms(mf, (1, 2)) * norms(np.linalg.inv(mf), (1, 2))) > cut
        except np.linalg.LinAlgError:   # an exactly singular stack: the SVD decides them all
            pass
        rest = rest[~ok[rest]]
    if rest.size:   # a NaN bound included
        s = np.linalg.svd(stacks(rest, a, flags, flags[0, ::-1]), compute_uv=False)
        ok[rest] = s[:, -1] > cfg.rank_tol * s[:, 0]
    return x, minors, ok.reshape(n, c).all(axis=1)


def first_nongeneric_coords(x: np.ndarray, d: np.ndarray,
                            rank_tol: float = DEFAULT_TOLERANCES.rank_tol) -> int | None:
    """Index of the first row x[n] for which (A, span x[n], C, span d) is
    not in generic position, or None when every row passes.

    The rows x and the vector d are coordinates in the basis of A's
    vectors, and C is A reversed.  The direct sums that must fill C^k are
    then the minors x_i, d_i and x_i d_{i+1} - x_{i+1} d_i, each divided
    by the norms of the coordinate vectors it is taken from and required
    to exceed rank_tol (a NaN fails).  A failing d_i fails every line, and
    the answer is 0.  The minors are read in the frame's metric, so a
    caller whose basis of A is ill-conditioned scales rank_tol by its
    condition number.
    """
    nx, nd = np.linalg.norm(x, axis=1)[:, None], np.linalg.norm(d)
    minors = x[:, :-1] * d[1:] - x[:, 1:] * d[:-1]
    ok = ((np.abs(d) > rank_tol * nd).all() & (np.abs(x) > rank_tol * nx).all(axis=1)
          & (np.abs(minors) > rank_tol * nd * nx).all(axis=1))
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else None


def generic_with_point(a: np.ndarray, v, c: np.ndarray, d,
                       cfg: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Genericity of (A, span v, C, span d) with the lines as 1-flags."""
    return generic_position([a, point_flag(v, cfg), c, point_flag(d, cfg)], cfg)


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


def quotient_cp1(a: np.ndarray, b1, c: np.ndarray, d1, i: int, j: int,
                 cfg: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """Project to C^k / (A_i + C_j), a projective line.

    Returns the four images as ProjPoints: the next step of A, the line
    b1, the next step of C, the line d1.  Requires i + j = k - 2.
    """
    k = a.shape[1]
    if i + j != k - 2 or i < 0 or j < 0:
        raise ValueError("need i + j = k - 2 with i, j >= 0")
    if i + 1 > len(a) or j + 1 > len(c):
        raise ValueError("flag heights too small for the requested quotient")
    b1 = b1 if isinstance(b1, ProjPoint) else ProjPoint(b1)
    d1 = d1 if isinstance(d1, ProjPoint) else ProjPoint(d1)
    rows = np.vstack([a[:i], c[:j]]) if i + j else np.zeros((0, k), dtype=complex)
    basis = _complement_basis(rows, k, cfg)
    pa = _project(basis, a[i], cfg, "next A step")
    pc = _project(basis, c[j], cfg, "next C step")
    pb = _project(basis, b1.coords, cfg, "B line")
    pd = _project(basis, d1.coords, cfg, "D line")
    return ProjPoint(pa, cfg), ProjPoint(pb, cfg), ProjPoint(pc, cfg), ProjPoint(pd, cfg)


def quotient_cp2(a: np.ndarray, b: np.ndarray, c: np.ndarray, i: int, j: int, l: int,
                 cfg: Tolerances = DEFAULT_TOLERANCES):
    """Project to C^k / (A_i + C_j + B_l), a projective plane.

    Returns three (line, plane) pairs as 2-row arrays in quotient
    coordinates: each flag advances by one and two steps over the
    quotiented sum.  Requires i + j + l = k - 3.
    """
    k = a.shape[1]
    if i + j + l != k - 3 or min(i, j, l) < 0:
        raise ValueError("need i + j + l = k - 3 with i, j, l >= 0")
    for f, n in ((a, i), (c, j), (b, l)):
        if n + 2 > len(f):
            raise ValueError("flag height too small for the requested quotient")
    rows = np.vstack([a[:i], c[:j], b[:l]])
    basis = _complement_basis(rows, k, cfg)

    def two_step(f: np.ndarray, n: int, name: str) -> np.ndarray:
        u1 = _project(basis, f[n], cfg, f"{name} line")
        u2 = basis.conj().T @ f[n + 1]
        m = np.vstack([u1, u2])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= cfg.rank_tol * s[0]:
            raise GenericityViolation(f"{name} plane collapses in the quotient")
        return m

    return two_step(a, i, "A"), two_step(b, l, "B"), two_step(c, j, "C")


def mirrored_pair_flag(pairs, hyps, cfg: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Flag placing pair partners symmetrically about the middle.

    Order (p1, p2, ..., pm, h..., pm', ..., p2', p1'), so the reversed
    flag lists the partners: conjugation carries each step of the flag
    to the same step of its reverse.
    """
    front = [p for p, _ in pairs]
    back = [q for _, q in reversed(pairs)]
    return make_flag(front + list(hyps) + back, cfg)
