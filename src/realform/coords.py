"""Cross ratios, triple ratios, and the coordinate dictionary.

Cross ratios are evaluated homogeneously through 2x2 determinants of
CP^1 representatives, so the point at infinity [1, 0] needs no special
case.  The primary normalization is

    [A, B, C, D] = (A - D)(C - B) / ((A - B)(C - D)),

with [inf, x, 0, 1] = x; the Fock-Goncharov normalization is

    [[A, B, C, D]] = (A - B)(C - D) / ((A - D)(B - C)),

with [[inf, -1, 0, x]] = x.  Membership predicates (real, positive
real, unit circle, conjugate pair, ...) are evaluated on the numerator
and denominator directly, which keeps them meaningful at infinity.

The coordinate sets are closed forms, as in Fock and Goncharov's
"Moduli spaces of local systems and higher Teichmueller theory".  Against
a flag pair (A, C = A reversed), a line with coordinates x in the basis
of A's vectors has cross ratio i equal to x_i d_{i+1} / (x_{i+1} d_i),
d being the reference's coordinates; the decision routes take x from a
generator's eigen-coordinate frame.  Triple ratios are ratios of k x k
minors of the three flags' leading vectors; against the same flag pair
each is +-det(A) times a minor of the middle flag's coordinate rows on a
window of columns, so ``frame_triple_ratio_sets`` reads every flag's
triple ratios, and the tests that guard them, from those minors
(``flags.frame_minors``).  ``triple_ratio_set`` evaluates three arbitrary
flags, and is the reference.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateTriple, GenericityViolation, IndeterminateCrossRatio
from .flags import Flag, LineConfig, _composition_rows, _compositions
# not used here, but kept importable: perfbench/spans.py wraps them by module global
from .flags import generic_with_point, quotient_cp1, quotient_cp2  # noqa: F401
from .projlin import ProjPoint, modulus, norms


def _det2(p, q):
    """2x2 determinants of CP^1 coordinate rows, elementwise over the leading axes."""
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


@dataclass(frozen=True)
class CrossRatio:
    """Cross ratio as a homogeneous pair num/den of O(1) determinants.

    num and den may also be equal-shape arrays, one cross ratio per
    element: the membership predicates below act elementwise, and
    indexing selects elements.
    """

    num: complex
    den: complex
    provenance: tuple | None = None

    @property
    def infinite(self):
        return np.abs(self.den) <= 1e-14 * np.maximum(np.abs(self.num), 1.0)

    @property
    def value(self) -> complex:
        if self.infinite:
            return complex(np.inf, 0.0)
        return complex(self.num / self.den)

    def __getitem__(self, index) -> "CrossRatio":
        return CrossRatio(num=self.num[index], den=self.den[index])


def ratio_values(cr: CrossRatio) -> list:
    """The values of an array-valued cross ratio as nested lists of complex,
    each num / den by Python's complex division, or inf where infinite."""
    return [[complex(np.inf, 0.0) if i else n / d for n, d, i in zip(*row)]
            for row in zip(cr.num.tolist(), cr.den.tolist(), cr.infinite.tolist())]


@dataclass(frozen=True)
class TripleRatio:
    value: complex
    provenance: tuple | None = None


def _points(points):
    return [p if isinstance(p, ProjPoint) else ProjPoint(p) for p in points]


def _homogeneous(num, den, provenance) -> CrossRatio:
    # the 0/0 floor of frame_cross_ratio_sets
    if abs(num) <= 1e-13 and abs(den) <= 1e-13:
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return CrossRatio(num=num, den=den, provenance=provenance)


def cross_ratio(a, b, c, d, provenance=None) -> CrossRatio:
    """[A, B, C, D] for four points of CP^1."""
    a, b, c, d = (p.coords for p in _points((a, b, c, d)))
    return _homogeneous(_det2(a, d) * _det2(c, b), _det2(a, b) * _det2(c, d), provenance)


def row_cross_ratios(a, b, c, d) -> CrossRatio:
    """[A, B, C, D] for points of CP^1 given as coordinate rows,
    elementwise over the leading axes (which broadcast); a 0/0 ratio
    raises, as in ``cross_ratio``."""
    num, den = _det2(a, d) * _det2(c, b), _det2(a, b) * _det2(c, d)
    if ((modulus(num) <= 1e-13) & (modulus(den) <= 1e-13)).any():
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return CrossRatio(num=num, den=den)


def fg_cross_ratio(a, b, c, d, provenance=None) -> CrossRatio:
    """[[A, B, C, D]], the Fock-Goncharov normalization."""
    a, b, c, d = (p.coords for p in _points((a, b, c, d)))
    return _homogeneous(_det2(a, b) * _det2(c, d), _det2(a, d) * _det2(b, c), provenance)


def config_cross_ratio(cfgn: LineConfig) -> CrossRatio:
    return cross_ratio(cfgn.a, cfgn.b, cfgn.c, cfgn.d, provenance=cfgn.provenance)


# ---------------------------------------------------------------------------
# membership predicates, evaluated homogeneously

def _max(*xs):
    return functools.reduce(np.maximum, xs)


def is_real_extended(cr: CrossRatio, tol: float):
    """Real or infinite (the extended real line)."""
    w = cr.num * np.conj(cr.den)
    return np.abs(w.imag) <= tol * _max(np.abs(w), np.abs(cr.num) ** 2, np.abs(cr.den) ** 2, 1e-300)


def is_real(cr: CrossRatio, tol: float):
    return ~cr.infinite & is_real_extended(cr, tol)


def is_real_positive(cr: CrossRatio, tol: float):
    return is_real(cr, tol) & ((cr.num * np.conj(cr.den)).real > 0)


def _equal_moduli(n, d, tol: float):
    return np.abs(n - d) <= tol * _max(n, d, 1e-300)


def _relative_defect(lhs, rhs):
    return np.abs(lhs - rhs) / _max(np.abs(lhs), np.abs(rhs), 1e-300)


def in_unit_circle(cr: CrossRatio, tol: float):
    return _equal_moduli(np.abs(cr.num), np.abs(cr.den), tol)


def conj_pair_defect(cr1: CrossRatio, cr2: CrossRatio):
    """Relative defect of cr1 == conj(cr2)."""
    return _relative_defect(cr1.num * np.conj(cr2.den), cr1.den * np.conj(cr2.num))


def unit_product_defect(cr1: CrossRatio, cr2: CrossRatio):
    """Relative defect of cr1 * conj(cr2) == 1."""
    return _relative_defect(cr1.num * np.conj(cr2.num), cr1.den * np.conj(cr2.den))


def product_in_unit_circle(cr1: CrossRatio, cr2: CrossRatio, tol: float):
    """|cr1 * cr2| == 1 within tol."""
    return _equal_moduli(np.abs(cr1.num) * np.abs(cr2.num), np.abs(cr1.den) * np.abs(cr2.den), tol)


def conj_product_defect(cr: CrossRatio, factors):
    """Relative defect of cr == conj(prod(factors))."""
    num = functools.reduce(np.multiply, [f.num for f in factors])
    den = functools.reduce(np.multiply, [f.den for f in factors])
    return _relative_defect(cr.num * np.conj(den), cr.den * np.conj(num))


def arg_sum_is_zero(crs, weights, tol: float):
    """Is sum(w * arg(cr)) an integer multiple of 2*pi?

    Evaluated as prod(cr**w) having argument 0, i.e. the product is a
    positive real; moduli are irrelevant, and a zero num * conj(den)
    fails.
    """
    p, nonzero = 1.0, True
    for cr, w in zip(crs, weights):
        z = cr.num * np.conj(cr.den)
        m = np.abs(z)
        nonzero = nonzero & (m != 0)
        p = p * (z / np.where(m == 0, 1.0, m)) ** w
    return nonzero & (np.abs(p.imag) <= tol) & (p.real > 0)


# ---------------------------------------------------------------------------
# coordinate sets over quotients

def _canonical_pairs(x: np.ndarray):
    """The pairs (x_i, x_{i+1}) along the last axis, each scaled as ProjPoint
    scales a point of CP^1: its larger-magnitude entry, the first on ties,
    becomes 1.  A zero pair stays zero."""
    first, second = x[..., :-1], x[..., 1:]
    pivot = np.where(modulus(second) > modulus(first), second, first)
    pivot[pivot == 0] = 1
    return first / pivot, second / pivot


def frame_cross_ratio_sets(x: np.ndarray, d: np.ndarray) -> CrossRatio:
    """The k-1 cross ratios [A, B, C, D] of each line B, in the quotients of
    C^k by A_i + C_{k-2-i}, from coordinates in the basis of A's vectors.

    C is A reversed, so quotient i keeps the coordinates (i, i+1): A and
    C map to [1, 0] and [0, 1], the line x[n] to (x_i, x_{i+1}) and the
    reference to (d_i, d_{i+1}).  The ratio is x_i d_{i+1} / (x_{i+1} d_i),
    with both pairs scaled canonically.  Returned as one CrossRatio whose
    num and den have a row per line; a 0/0 ratio raises.
    """
    (x0, x1), (d0, d1) = _canonical_pairs(x), _canonical_pairs(d)
    num, den = x0 * d1, x1 * d0
    if ((modulus(num) <= 1e-13) & (modulus(den) <= 1e-13)).any():
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return CrossRatio(num=num, den=den)


def cross_ratio_lists(crs: CrossRatio) -> list:
    """The rows of ``frame_cross_ratio_sets``' result as lists of scalar
    CrossRatios, entry i with provenance (i, k-2-i)."""
    return [[CrossRatio(num=n, den=e, provenance=(i, len(nums) - 1 - i))
             for i, (n, e) in enumerate(zip(nums, dens))]
            for nums, dens in zip(crs.num.tolist(), crs.den.tolist())]


def cross_ratio_set(a: Flag, b1, c: Flag, d1):
    """The k-1 cross ratios of the line b1: entry i comes from the quotient
    of C^k by A_i + C_{k-2-i}, in ``frame_cross_ratio_sets``'s closed form.

    C must be A reversed (a ValueError otherwise).  Genericity of b1 with
    the flags and d1 is the caller's to check
    (``flags.first_nongeneric_coords``).
    """
    if not np.array_equal(c.vectors, a.vectors[::-1]):
        raise ValueError("cross ratio sets need C = A reversed")
    x = np.array([p.coords for p in _points([b1, d1])]) @ np.linalg.inv(a.vectors)
    return cross_ratio_lists(frame_cross_ratio_sets(x[:1], x[1]))[0]


def triple_ratio(va, fa, vb, fb, vc, fc, provenance=None) -> TripleRatio:
    """r3 from line direction vectors and plane linear forms.

    Forms act by the plain (bilinear) dot product.
    """
    va, vb, vc = (np.asarray(v, dtype=complex) for v in (va, vb, vc))
    fa, fb, fc = (np.asarray(f, dtype=complex) for f in (fa, fb, fc))
    num = (fa @ vb) * (fb @ vc) * (fc @ va)
    den = (fa @ vc) * (fb @ va) * (fc @ vb)
    if abs(den) <= 1e-14 * max(abs(num), 1.0):
        raise DegenerateTriple("triple ratio denominator vanishes")
    return TripleRatio(value=num / den, provenance=provenance)


def _cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.array([
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ])


def triple_ratio_cp2(fa: np.ndarray, fb: np.ndarray, fc: np.ndarray,
                     provenance=None) -> TripleRatio:
    """r3 of three 2-step flags in C^3 given as 2-row arrays.

    The plane form of each flag is the cross product of its two rows,
    which vanishes exactly on the plane they span.
    """
    return triple_ratio(fa[0], _cross3(fa[0], fa[1]), fb[0], _cross3(fb[0], fb[1]),
                        fc[0], _cross3(fc[0], fc[1]), provenance=provenance)


@functools.lru_cache(maxsize=None)
def _triple_minors(k: int):
    """The quotients (p, q, r) of ``triple_ratio_set`` in order; per
    quotient, the positions of its numerator and denominator minors
    Delta(i, j, l) among the compositions of k into three parts below k;
    per quotient the position of (p, r, q); and the (3, C) parts of
    those compositions."""
    quotients = tuple((p, q, k - 3 - p - q) for p in range(k - 2) for q in range(k - 2 - p))
    minors = _compositions((k - 1,) * 3, k)
    where = np.array([[minors.index(m) for m in
                       ((p + 2, q + 1, r), (p, q + 2, r + 1), (p + 1, q, r + 2),
                        (p + 2, q, r + 1), (p + 1, q + 2, r), (p, q + 1, r + 2))]
                      for p, q, r in quotients], dtype=np.intp).reshape(-1, 2, 3)
    swap = np.array([quotients.index((p, r, q)) for p, q, r in quotients], dtype=np.intp)
    parts = np.array(minors, dtype=np.intp).T
    for table in (where, swap, parts):
        table.flags.writeable = False
    return quotients, where, swap, parts


def frame_triple_ratio_sets(a: np.ndarray, flags: np.ndarray, minors: np.ndarray,
                            cfg: Tolerances = DEFAULT_TOLERANCES, inverted=()):
    """``triple_ratio_set``(A, B_n, C) for every flag B_n, from its minors
    in A's frame.

    ``a`` holds A's rows and C is A reversed; flags[n] holds B_n's rows,
    and minors[n, c] is the minor of B_n's first j rows in A's frame
    (flags[n] @ inv(a)) on the columns [i, k - l), c indexing the
    compositions (i, j, l) of k into three parts below k.  Then
    Delta(i, j, l) is +-det(a) times that minor: the signs and det(a)
    cancel in each ratio, the genericity cut reads |det(a)| |minor|
    against the product of the stacked rows' norms, and the
    ``DegenerateTriple`` test reads the products scaled by the volume of
    each quotiented sum, as ``triple_ratio_set`` does.  A flag listed in
    ``inverted`` gives r3(A, C, B_n) instead, whose [p, q, r] is
    1 / r3(A, B_n, C)[p, r, q], with numerator and denominator swapped.

    Returns the (F, (k-1)(k-2)/2) values, in the quotient order of
    ``triple_ratio_set``, and per flag the error its set raises, or None.
    """
    k = a.shape[0]
    if k < 3:
        return np.empty((len(flags), 0), dtype=complex), [None] * len(flags)
    _, where, swap, (i, j, l) = _triple_minors(k)
    lead = flags[:, :k - 1]
    na = norms(a, 1)
    pa, pc, pb = _prefix_products(na), _prefix_products(na[::-1]), _prefix_products(norms(lead, 2))
    delta = abs(np.linalg.det(a)) * modulus(minors)
    cut = (delta > cfg.rank_tol * pa[i] * pb[:, j] * pc[l])[:, where].all(axis=(1, 2, 3))
    # scaled as in the quotient's orthonormal coordinates: by the volume of the quotiented sum
    cube = 1.0
    if k > 3:
        rows = np.concatenate([np.broadcast_to(a[:k - 1], lead.shape), lead,
                               np.broadcast_to(a[:0:-1], lead.shape)], axis=1)
        prefix = rows[:, _composition_rows((k - 1,) * 3, k - 3)]
        cube = np.linalg.det(prefix @ prefix.conj().swapaxes(-1, -2)).real ** 1.5
    with np.errstate(all="ignore"):
        num, den = np.prod(delta[:, where], axis=3).transpose(2, 0, 1)
        top, bottom = np.prod(minors[:, where], axis=3).transpose(2, 0, 1)
        values = top / bottom
        if inverted:
            inv = list(inverted)
            values[inv] = (bottom[inv] / top[inv])[:, swap]
            num[inv], den[inv] = den[inv], num[inv]
        # den / cube <= 1e-14 max(num / cube, 1)
        degenerate = (den <= 1e-14 * np.maximum(num, cube)).any(axis=1)
    errors = [None if c and not d else
              GenericityViolation("flags are not in generic position for a triple ratio") if not c
              else DegenerateTriple("triple ratio denominator vanishes")
              for c, d in zip(cut.tolist(), degenerate.tolist())]
    return values, errors


def _prefix_products(v: np.ndarray) -> np.ndarray:
    """The products of the first 0, 1, ..., n entries of v along its last axis."""
    out = np.ones(v.shape[:-1] + (v.shape[-1] + 1,))
    np.cumprod(v, axis=-1, out=out[..., 1:])
    return out


def triple_ratio_set(a: Flag, b: Flag, c: Flag,
                     cfg: Tolerances = DEFAULT_TOLERANCES):
    """One triple ratio per quotient, (k-1)(k-2)/2 in total.

    Index (p, q, r) quotients by the sum of the first p, q, r steps of
    a, b, c respectively; the rule is symmetric in the three flags, so
    r3(a, b, c)[p, q, r] * r3(a, c, b)[p, r, q] = 1 and cyclic
    permutations reuse the same quotients.  With Delta(i, j, l) the
    determinant of the first i, j, l vectors of a, b, c stacked,

        r3[p, q, r] = Delta(p+2, q+1, r) Delta(p, q+2, r+1) Delta(p+1, q, r+2)
                    / (Delta(p+2, q, r+1) Delta(p+1, q+2, r) Delta(p, q+1, r+2)).

    In the basis of a's vectors with c = a reversed, Delta(i, j, l) is
    det(a) times the minor of b's coordinate rows on rows [0, j) and
    columns [i, k - l), up to sign.  Each Delta is read as
    |det| / (product of its rows' norms) and must exceed rank_tol, or
    the flags are not in generic position.  The products are scaled as
    in the quotient's orthonormal coordinates, where a denominator below
    1e-14 * max(|numerator|, 1) vanishes.
    """
    k = a.dim
    if k < 3:
        return []
    if min(a.height, b.height, c.height) < k - 1:
        raise ValueError("flag height too small for the requested quotient")
    quotients, where, *_ = _triple_minors(k)
    rows = np.vstack([a.vectors[:k - 1], b.vectors[:k - 1], c.vectors[:k - 1]])
    stacked = rows[_composition_rows((k - 1,) * 3, k)]
    delta, scale = np.linalg.det(stacked)[where], np.prod(np.linalg.norm(stacked, axis=2), axis=1)
    if not (modulus(delta) > cfg.rank_tol * scale[where]).all():
        raise GenericityViolation("flags are not in generic position for a triple ratio")
    # scaled as in the quotient's orthonormal coordinates: over the volume of the quotiented sum
    prefix = rows[_composition_rows((k - 1,) * 3, k - 3)]
    volume = np.sqrt(np.linalg.det(prefix @ prefix.conj().transpose(0, 2, 1)).real)
    num, den = np.prod(delta, axis=2).T / volume ** 3
    if (modulus(den) <= 1e-14 * np.maximum(modulus(num), 1.0)).any():
        raise DegenerateTriple("triple ratio denominator vanishes")
    return [TripleRatio(value=v, provenance=p) for v, p in zip((num / den).tolist(), quotients)]
