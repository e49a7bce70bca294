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

The coordinate sets are evaluated as arrays over every line and
quotient; complex products there use explicit real arithmetic, so each
value is bit for bit what the scalar functions give on one quotient.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateTriple, IndeterminateCrossRatio
from .flags import Flag, LineConfig, quotient_cp1_images, quotient_cp2_planes
# not used here, but kept importable: perfbench/spans.py wraps them by module global
from .flags import generic_with_point, quotient_cp1, quotient_cp2  # noqa: F401
from .projlin import ProjPoint, modulus


def _det2(p: ProjPoint, q: ProjPoint) -> complex:
    a, b = p.coords
    c, d = q.coords
    return a * d - b * c


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for arrays of one shape, rounded as the scalar complex product
    is (numpy's array product may differ)."""
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


@dataclass(frozen=True)
class CrossRatio:
    """Cross ratio as a homogeneous pair num/den of O(1) determinants."""

    num: complex
    den: complex
    provenance: tuple | None = None

    @property
    def infinite(self) -> bool:
        return abs(self.den) <= 1e-14 * max(abs(self.num), 1.0)

    @property
    def value(self) -> complex:
        if self.infinite:
            return complex(np.inf, 0.0)
        return self.num / self.den


@dataclass(frozen=True)
class TripleRatio:
    value: complex
    provenance: tuple | None = None


def cross_ratio(a, b, c, d, provenance=None, tiny: float = 1e-13) -> CrossRatio:
    """[A, B, C, D] for four points of CP^1."""
    pts = [p if isinstance(p, ProjPoint) else ProjPoint(p) for p in (a, b, c, d)]
    a, b, c, d = pts
    num = _det2(a, d) * _det2(c, b)
    den = _det2(a, b) * _det2(c, d)
    if abs(num) <= tiny and abs(den) <= tiny:
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return CrossRatio(num=num, den=den, provenance=provenance)


def fg_cross_ratio(a, b, c, d, provenance=None, tiny: float = 1e-13) -> CrossRatio:
    """[[A, B, C, D]], the Fock-Goncharov normalization."""
    pts = [p if isinstance(p, ProjPoint) else ProjPoint(p) for p in (a, b, c, d)]
    a, b, c, d = pts
    num = _det2(a, b) * _det2(c, d)
    den = _det2(a, d) * _det2(b, c)
    if abs(num) <= tiny and abs(den) <= tiny:
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return CrossRatio(num=num, den=den, provenance=provenance)


def config_cross_ratio(cfgn: LineConfig) -> CrossRatio:
    return cross_ratio(cfgn.a, cfgn.b, cfgn.c, cfgn.d, provenance=cfgn.provenance)


# ---------------------------------------------------------------------------
# membership predicates, evaluated homogeneously

def is_real_extended(cr: CrossRatio, tol: float) -> bool:
    """Real or infinite (the extended real line)."""
    w = cr.num * np.conj(cr.den)
    return abs(w.imag) <= tol * max(abs(w), abs(cr.num) ** 2, abs(cr.den) ** 2, 1e-300)


def is_real(cr: CrossRatio, tol: float) -> bool:
    return not cr.infinite and is_real_extended(cr, tol)


def is_real_positive(cr: CrossRatio, tol: float) -> bool:
    w = cr.num * np.conj(cr.den)
    return is_real(cr, tol) and w.real > 0


def in_unit_circle(cr: CrossRatio, tol: float) -> bool:
    n, d = abs(cr.num), abs(cr.den)
    return abs(n - d) <= tol * max(n, d, 1e-300)


def conj_pair_defect(cr1: CrossRatio, cr2: CrossRatio) -> float:
    """Relative defect of cr1 == conj(cr2)."""
    lhs = cr1.num * np.conj(cr2.den)
    rhs = cr1.den * np.conj(cr2.num)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def unit_product_defect(cr1: CrossRatio, cr2: CrossRatio) -> float:
    """Relative defect of cr1 * conj(cr2) == 1."""
    lhs = cr1.num * np.conj(cr2.num)
    rhs = cr1.den * np.conj(cr2.den)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def product_in_unit_circle(cr1: CrossRatio, cr2: CrossRatio, tol: float) -> bool:
    """|cr1 * cr2| == 1 within tol."""
    n = abs(cr1.num) * abs(cr2.num)
    d = abs(cr1.den) * abs(cr2.den)
    return abs(n - d) <= tol * max(n, d, 1e-300)


def conj_product_defect(cr: CrossRatio, factors) -> float:
    """Relative defect of cr == conj(prod(factors))."""
    num = np.prod([f.num for f in factors])
    den = np.prod([f.den for f in factors])
    lhs = cr.num * np.conj(den)
    rhs = cr.den * np.conj(num)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def arg_sum_is_zero(crs, weights, tol: float) -> bool:
    """Is sum(w * arg(cr)) an integer multiple of 2*pi?

    Evaluated as prod(cr**w) having argument 0, i.e. the product is a
    positive real; moduli are irrelevant.
    """
    p = complex(1.0)
    for cr, w in zip(crs, weights):
        z = cr.num * np.conj(cr.den)
        m = abs(z)
        if m == 0:
            return False
        z /= m
        p *= z**w
    return abs(p.imag) <= tol and p.real > 0


# ---------------------------------------------------------------------------
# coordinate sets over quotients

def cp1_cross_ratios(a: Flag, lines, c: Flag, d1: ProjPoint,
                     cfg: Tolerances = DEFAULT_TOLERANCES):
    """Arrays (num, den, fg_den) of shape (len(lines), k - 1): [n, i] holds
    [A, B, C, D] = num / den and [[A, B, C, D]] = den / fg_den of line n
    in quotient_cp1(..., i, k - 2 - i).  A 0/0 ratio raises."""
    img = quotient_cp1_images(a, lines, c, d1, cfg)   # A, C, D, then the lines
    n = len(lines)
    b = [*range(3, 3 + n)]
    # _det2 by rows: det(A, D), det(C, D), then per line det(C, B), det(A, B), det(B, C)
    prods = _mul(img[[0, 1] + [1] * n + [0] * n + b], img[[2, 2] + b + b + [1] * n][..., ::-1])
    dets = prods[..., 0] - prods[..., 1]
    ad, cd = [0] * n, [1] * n
    cb, ab, bc = ([*range(2 + m * n, 2 + (m + 1) * n)] for m in range(3))
    num, den, fg_den = _mul(dets[ad + ab + ad], dets[cb + cd + bc]).reshape(3, n, img.shape[1])
    if ((modulus(num) <= 1e-13) & (modulus(den) <= 1e-13)).any():
        raise IndeterminateCrossRatio("0/0 cross ratio: too many coincident points")
    return num, den, fg_den


def cross_ratio_sets(a: Flag, lines, c: Flag, d1,
                     cfg: Tolerances = DEFAULT_TOLERANCES):
    """The k-1 cross ratios of the quotient configurations, for each line.

    Entry [n][i] comes from the quotient of C^k by A_i + C_{k-2-i} with
    line n in the B slot; in the standard normalization it is the ratio
    of consecutive components of that line.  Genericity of the lines
    with the flags and d1 is the caller's to check
    (``flags.first_nongeneric_line``).
    """
    lines = [v if isinstance(v, ProjPoint) else ProjPoint(v) for v in lines]
    d1 = d1 if isinstance(d1, ProjPoint) else ProjPoint(d1)
    num, den, _ = cp1_cross_ratios(a, lines, c, d1, cfg)
    k = a.dim
    provenance = [(i, k - 2 - i) for i in range(k - 1)]
    return [[CrossRatio(num=n, den=d, provenance=p) for n, d, p in zip(nums, dens, provenance)]
            for nums, dens in zip(num, den)]


def cross_ratio_set(a: Flag, b1, c: Flag, d1, cfg: Tolerances = DEFAULT_TOLERANCES):
    """The k-1 cross ratios of one line: ``cross_ratio_sets`` of [b1]."""
    return cross_ratio_sets(a, [b1], c, d1, cfg)[0]


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
    return triple_ratio(
        fa[0], _cross3(fa[0], fa[1]),
        fb[0], _cross3(fb[0], fb[1]),
        fc[0], _cross3(fc[0], fc[1]),
        provenance=provenance,
    )


def triple_ratio_set(a: Flag, b: Flag, c: Flag,
                     cfg: Tolerances = DEFAULT_TOLERANCES):
    """One triple ratio per quotient, (k-1)(k-2)/2 in total.

    Index (p, q, r) quotients by the sum of the first p, r, q steps of
    a, b, c respectively; the rule is symmetric in the three flags, so
    r3(a, b, c)[p, q, r] * r3(a, c, b)[p, r, q] = 1 and cyclic
    permutations reuse the same quotients.
    """
    quotients, planes, errors = quotient_cp2_planes(a, b, c, cfg)
    v, w = planes[:, :, 0], planes[:, :, 1]   # each flag's line, and a second vector of its plane
    f = _mul(v[..., [1, 2, 0, 2, 0, 1]], w[..., [2, 0, 1, 1, 2, 0]])
    f = f[..., :3] - f[..., 3:]   # the plane forms, _cross3(v, w)
    # f_A.v_B, f_B.v_C, f_C.v_A over f_A.v_C, f_B.v_A, f_C.v_B, as stacked dot products
    dots = (f[:, [0, 1, 2, 0, 1, 2], None, :] @ v[:, [1, 2, 0, 2, 0, 1], :, None]).reshape(-1, 2, 3)
    num, den = _mul(_mul(dots[..., 0], dots[..., 1]), dots[..., 2]).T
    vanishes = (modulus(den) <= 1e-14 * np.maximum(modulus(num), 1.0)).tolist()
    out = []
    for provenance, error, n, d, degenerate in zip(quotients, errors, num, den, vanishes):
        if error is not None:
            raise error
        if degenerate:
            raise DegenerateTriple("triple ratio denominator vanishes")
        out.append(TripleRatio(value=n / d, provenance=provenance))
    return out
