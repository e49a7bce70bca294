"""Ground-truth instance generation and brute-force confirmation.

Instances are built as real diagonalizable matrices with requested
spectral types, optionally conjugated by a common random complex matrix
(ground truth Yes with that matrix as realifier) and optionally broken
by moving one eigendirection off the preserved form (ground truth No).

The brute-force search at k = 2 sweeps circles and lines of the
extended plane and reports the best preservation defect over the grid,
confirming No verdicts independently of the decision procedures.
"""

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasibleSpec, NonDiagonalizable, RepeatedEigenvalues
from .projlin import MAX_DIM, MIN_DIM, eig, proj_dist
from .spectrum import KIND_ELLIPTIC, KIND_HYPERBOLIC, type_transformation

SCRAMBLE_NONE = "none"
SCRAMBLE_GAMMA = "random_gamma"

TYPE_HYPERBOLIC = "hyperbolic"
TYPE_ELLIPTIC = "elliptic"
TYPE_MIXED = "mixed"

_RATIO_MARGIN = 0.1
_ANGLE_MARGIN = 0.1
_MAX_COND = 15.0


class _Resample(Exception):
    """The current draw misses a gate; draw again."""


@dataclass(frozen=True)
class InstanceSpec:
    k: int
    n_generators: int
    type_mix: dict = field(default_factory=dict)
    seed: int = 0
    scramble: str = SCRAMBLE_GAMMA
    perturbation: tuple | None = None  # (generator index, magnitude)

    def validate(self):
        if not MIN_DIM <= self.k <= MAX_DIM:
            raise InfeasibleSpec(f"k must lie in [{MIN_DIM}, {MAX_DIM}]")
        if self.n_generators < 1:
            raise InfeasibleSpec("need at least one generator")
        if self.seed < 0:
            raise InfeasibleSpec("seed must be a non-negative integer")
        counts = {TYPE_HYPERBOLIC: 0, TYPE_ELLIPTIC: 0, TYPE_MIXED: 0}
        if any(t not in counts or not isinstance(v, Integral) for t, v in self.type_mix.items()):
            raise InfeasibleSpec(f"type mix must map {', '.join(counts)} to integer counts")
        counts.update(self.type_mix)
        if sum(counts.values()) != self.n_generators:
            raise InfeasibleSpec("type mix does not sum to the generator count")
        if any(v < 0 for v in counts.values()):
            raise InfeasibleSpec("negative type counts")
        if counts[TYPE_ELLIPTIC] and self.k % 2 and self.k != 3:
            raise InfeasibleSpec("strictly elliptic transformations need even k (k=3 means one "
                                 "hyperbolic direction plus a pair)")
        if counts[TYPE_MIXED] and self.k < 3:
            raise InfeasibleSpec("mixed spectra need k >= 3")
        if self.perturbation is not None:
            g, mag = self.perturbation
            if not (isinstance(g, Integral) and 0 <= g < self.n_generators) or not 0 < mag < np.inf:
                raise InfeasibleSpec("perturbation index not an integer in range or magnitude "
                                     "not positive and finite")
        return counts


@dataclass(frozen=True)
class GeneratedInstance:
    matrices: list
    answer: str          # "yes" or "no"
    gamma: np.ndarray | None
    spec: InstanceSpec


def _sample_real_eigenvalues(rng, count, existing):
    """Distinct reals with projective gaps from each other and their negatives."""
    vals = list(existing)
    out = []
    while len(out) < count:
        lam = float(rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0]))
        if all(abs(lam - v) > _RATIO_MARGIN * max(abs(lam), abs(v)) and
               abs(lam + v) > _RATIO_MARGIN * max(abs(lam), abs(v)) for v in vals):
            out.append(lam)
            vals.append(lam)
    return out


def _sample_angles(rng, count):
    """Rotation angles separated from 0, pi, each other, and supplements."""
    out = []
    while len(out) < count:
        th = float(rng.uniform(_ANGLE_MARGIN * 1.5, np.pi - _ANGLE_MARGIN * 1.5))
        if all(abs(th - t) > _ANGLE_MARGIN and abs(th + t - np.pi) > _ANGLE_MARGIN for t in out):
            out.append(th)
    return out


def _real_matrix_with_spectrum(rng, k, n_pairs, n_reals):
    """Real matrix with n_pairs rotation-scale blocks and n_reals real eigenvalues."""
    angles = _sample_angles(rng, n_pairs)
    radii = [float(rng.uniform(0.5, 2.5)) for _ in range(n_pairs)]
    reals = _sample_real_eigenvalues(rng, n_reals, [])
    blocks = []
    for r, th in zip(radii, angles):
        blocks.append(r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    d = np.zeros((k, k))
    pos = 0
    for b in blocks:
        d[pos:pos + 2, pos:pos + 2] = b
        pos += 2
    for lam in reals:
        d[pos, pos] = lam
        pos += 1
    while True:
        v = rng.normal(size=(k, k))
        if np.linalg.cond(v) < _MAX_COND:
            break
    return v @ d @ np.linalg.inv(v)


def _generator(rng, k, gtype):
    if gtype == TYPE_HYPERBOLIC:
        return _real_matrix_with_spectrum(rng, k, 0, k)
    if gtype == TYPE_ELLIPTIC:
        if k == 3:
            return _real_matrix_with_spectrum(rng, k, 1, 1)
        return _real_matrix_with_spectrum(rng, k, k // 2, 0)
    n_pairs = int(rng.integers(1, (k - 1) // 2 + 1))
    return _real_matrix_with_spectrum(rng, k, n_pairs, k - 2 * n_pairs)


def _random_gamma(rng, k, max_cond=_MAX_COND):
    while True:
        g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        if np.linalg.cond(g) < max_cond:
            return g / abs(np.linalg.det(g)) ** (1.0 / k)


def _perturbation_delta(m, rng, gamma, cfg):
    """Unit offset orthogonal to the first eigendirection.

    For a hyperbolic direction the offset points along the normal bundle
    of the preserved projective real form (i times a form-tangent
    vector), a targeted break of its on-form condition; an elliptic pair
    member gets a generic orthogonal direction (the caller probes the
    phase).  Returns (eigensystem, eigenvector matrix, offset, label).
    """
    es = eig(m, cfg)
    sc = type_transformation(es, cfg)
    k = es.dim
    vecs = np.column_stack([d.coords for d in es.directions])
    v = vecs[:, 0]

    def perp(u):
        w = u - v * (np.vdot(v, u) / np.vdot(v, v))
        n = np.linalg.norm(w)
        return None if n < cfg.rank_tol * np.linalg.norm(u) else w / n

    delta = None
    label = sc.labels[0]
    if label == "hyperbolic":
        # v = gamma x with x real; gamma (real w) spans the form's
        # tangent directions at v, and i rotates tangent to normal
        x = np.linalg.solve(gamma, v)
        x = np.real(x * np.exp(-1j * np.angle(x[int(np.argmax(np.abs(x)))])))
        for _ in range(20):
            w = rng.normal(size=k)
            w = w - x * (x @ w) / (x @ x)
            if np.linalg.norm(w) < cfg.rank_tol:
                continue
            delta = perp(1j * (gamma @ w))
            if delta is not None:
                break
    if delta is None:
        for _ in range(20):
            delta = perp(rng.normal(size=k) + 1j * rng.normal(size=k))
            if delta is not None:
                break
    return es, vecs, delta, label


def _apply_perturbation(es, vecs, delta, magnitude):
    out = vecs.copy()
    out[:, 0] = vecs[:, 0] + magnitude * np.linalg.norm(vecs[:, 0]) * delta
    return out @ np.diag(es.eigenvalues) @ np.linalg.inv(out)


def _perturb_eigendirection(ms, g_idx, magnitude, rng, gamma, cfg):
    """Replace one generator by a copy with one eigendirection moved.

    Hyperbolic directions start from the deterministic form-normal
    offset.  At k = 2 the candidate circles can track part of the
    tangent plane and clustered configurations give them leverage, so a
    few offset phases are probed against the form search and the most
    incompatible one is kept; the achieved defect is returned so the
    caller can resample degenerate geometry.
    """
    es, vecs, delta, label = _perturbation_delta(ms[g_idx], rng, gamma, cfg)
    k = es.dim
    if k != 2:
        out = list(ms)
        out[g_idx] = _apply_perturbation(es, vecs, delta, magnitude)
        return out, None
    best, best_defect = None, -1.0
    for j in range(4):
        cand = list(ms)
        cand[g_idx] = _apply_perturbation(es, vecs, delta * np.exp(1j * np.pi * j / 4), magnitude)
        defect = brute_rform_search(cand, grid=40, refine=3, cfg=cfg)
        if defect > best_defect:
            best, best_defect = cand, defect
    return best, best_defect


def generate(spec: InstanceSpec, cfg: Tolerances = DEFAULT_TOLERANCES) -> GeneratedInstance:
    """Realize an instance spec with a known answer.

    The construction is retried until every generator passes the
    eigenvalue separation and type gates, so the instance sits well
    inside the generic regime.  Only a missed gate, or an eigensystem
    the gates cannot use, triggers a retry; any other error propagates.
    """
    counts = spec.validate()
    rng = np.random.default_rng(spec.seed)
    order = ([TYPE_HYPERBOLIC] * counts[TYPE_HYPERBOLIC]
             + [TYPE_ELLIPTIC] * counts[TYPE_ELLIPTIC]
             + [TYPE_MIXED] * counts[TYPE_MIXED])

    gamma = None
    answer = "yes"
    for _ in range(200):
        try:
            ms = [_generator(rng, spec.k, t) for t in order]
            for m, t in zip(ms, order):
                sc = type_transformation(eig(m, cfg), cfg)
                if not (sc.compatible and sc.generic):
                    raise _Resample
                if t == TYPE_HYPERBOLIC and sc.kind != KIND_HYPERBOLIC:
                    raise _Resample
                if t == TYPE_ELLIPTIC and spec.k != 3 and sc.kind != KIND_ELLIPTIC:
                    raise _Resample
            gamma = None
            if spec.scramble == SCRAMBLE_GAMMA:
                # a strong stretch pulls every direction toward the top
                # singular subspace; keep 2x2 scrambles mild so form
                # searches stay well conditioned
                cond_cap = 2.5 if spec.k == 2 else 8.0
                gamma = _random_gamma(rng, spec.k, max_cond=cond_cap)
                inv = np.linalg.inv(gamma)
                ms = [gamma @ m @ inv for m in ms]
            if spec.k == 2:
                # near-shared fixed points leave the configuration close
                # to degenerate for the circle search; keep them apart
                dirs = [d for m in ms for d in eig(m, cfg).directions]
                margin = min(0.08, 0.6 / len(dirs))
                seps = [proj_dist(dirs[i], dirs[j])
                        for i in range(len(dirs)) for j in range(i + 1, len(dirs))]
                if min(seps) < margin:
                    raise _Resample
            if spec.perturbation is not None:
                g_idx, mag = spec.perturbation
                frame = gamma if gamma is not None else np.eye(spec.k, dtype=complex)
                ms, achieved = _perturb_eigendirection(ms, g_idx, mag, rng, frame, cfg)
                # clustered configurations give the circle family leverage
                # to absorb the break; insist the violation is definite
                if achieved is not None and achieved < 0.4 * mag:
                    raise _Resample
                answer = "no"
                gamma = None
            break
        except (_Resample, RepeatedEigenvalues, NonDiagonalizable):
            continue
    else:
        raise InfeasibleSpec("could not realize the requested mix after many attempts")

    return GeneratedInstance(matrices=ms, answer=answer, gamma=gamma, spec=spec)


# ---------------------------------------------------------------------------
# brute-force search over circles and lines (k = 2)

_CHUNK = 1 << 20
_STARTS = 4   # coarse circles the refinement starts from


def _fixed_points_cp1(m, cfg):
    es = eig(m, cfg)
    pts = []
    for d in es.directions:
        a, b = d.coords
        pts.append(complex(np.inf) if abs(b) <= cfg.deg_tol else a / b)
    sc = type_transformation(es, cfg)
    return pts, sc.kind


def _gap_vec(z: np.ndarray, w: complex) -> np.ndarray:
    """Chordal distance from an array of sphere points to one point."""
    zinf = ~np.isfinite(z)
    finite = not zinf.any()
    zf = z if finite else z[~zinf]
    if np.isinf(w):
        gap, at_inf = 2.0 / np.sqrt(1 + np.abs(zf) ** 2), 0.0
    else:
        gap = 2 * np.abs(zf - w) / np.sqrt((1 + np.abs(zf) ** 2) * (1 + abs(w) ** 2))
        at_inf = 2.0 / np.sqrt(1 + abs(w) ** 2)
    if finite:
        return gap
    out = np.empty(z.shape)
    out[zinf] = at_inf
    out[~zinf] = gap
    return out


def _invert_vec(z: complex, c: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Image of one point under inversion about every circle of the grid of
    centers ``c`` (..., m, 1) and squared radii ``r2`` (..., 1, n); a point at
    infinity maps to the centers themselves."""
    if np.isinf(z):
        return c
    d = z - c
    small = np.abs(d) < 1e-300
    if not small.any():
        return c + r2 / np.conj(d)
    return np.where(small, np.inf, c + r2 / np.conj(np.where(small, 1, d)))


def _circle_defects(points_kinds, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Worst defect of every circle with a center of ``c`` (..., m) and a
    radius of ``r`` (..., n), as (..., m, n): center-major once raveled."""
    c, r2 = c[..., :, None], (r ** 2)[..., None, :]
    worst = np.zeros(np.broadcast_shapes(c.shape, r2.shape))
    for (p, q), kind in points_kinds:
        ip, iq = _invert_vec(p, c, r2), _invert_vec(q, c, r2)
        if kind == KIND_HYPERBOLIC:
            d = np.maximum(_gap_vec(ip, p), _gap_vec(iq, q))
        else:
            d = np.maximum(_gap_vec(ip, q), _gap_vec(iq, p))
        worst = np.maximum(worst, d)
    return worst


def _reflect_vec(z: complex, e2: np.ndarray, p0: np.ndarray) -> np.ndarray:
    if np.isinf(z):
        return np.full(p0.shape, np.inf, dtype=complex)
    return e2 * np.conj(z - p0) + p0


def _line_defects(points_kinds, alpha: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Worst defect of every line at an angle of ``alpha`` (a,) and an
    offset of ``offset`` (o,), as (a, o): angle-major once raveled."""
    e = np.exp(1j * alpha)[:, None]
    e2 = e * e
    p0 = offset * 1j * e
    worst = np.zeros(p0.shape)
    for (p, q), kind in points_kinds:
        rp, rq = _reflect_vec(p, e2, p0), _reflect_vec(q, e2, p0)
        if kind == KIND_HYPERBOLIC:
            d = np.maximum(_gap_vec(rp, p), _gap_vec(rq, q))
        else:
            d = np.maximum(_gap_vec(rp, q), _gap_vec(rq, p))
        worst = np.maximum(worst, d)
    return worst


def brute_rform_search(ms, grid: int = 200, refine: int = 4,
                       cfg: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Best preservation defect over sampled circles and lines (k = 2).

    Hyperbolic fixed points must lie on the candidate form, elliptic
    pairs must be swapped by inversion about it; defects are chordal.
    Sweeps center x center x radius plus line angle x offset, then
    shrinks the grid around the best few coarse circles (the minimum can
    sit in a different basin than the coarse argmin) so a genuinely
    preserved form is located to high accuracy.  Each kernel evaluates
    a whole product grid at once; the refinement runs every start
    together.
    """
    if grid < 2 or refine < 0:
        raise ValueError(f"need grid >= 2 and refine >= 0, got grid={grid}, refine={refine}")
    points_kinds = []
    extent = 2.0
    for i, m in enumerate(ms):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"matrix {i}: the search needs 2x2 matrices, got shape {m.shape}")
        pts, kind = _fixed_points_cp1(m, cfg)
        points_kinds.append((tuple(pts), kind))
        for p in pts:
            if not np.isinf(p):
                extent = max(extent, 1.5 * abs(p))

    xs = np.linspace(-extent, extent, grid)
    rs = np.geomspace(0.05, 2 * extent, grid)
    cgrid = (xs[:, None] + 1j * xs[None, :]).ravel()

    best = np.inf
    seeds = []
    step = max(1, _CHUNK // grid)
    for start in range(0, cgrid.size, step):
        cs = cgrid[start:start + step]
        d = _circle_defects(points_kinds, cs, rs).ravel()
        order = np.argsort(d)[:_STARTS]
        seeds.extend((float(d[i]), cs[i // grid].real, cs[i // grid].imag, rs[i % grid])
                     for i in order)
        best = min(best, float(d[order[0]]))
    seeds.sort()
    _, cx, cy, r = np.array(seeds[:_STARTS]).T

    alphas = np.linspace(0, np.pi, grid, endpoint=False)
    dline = _line_defects(points_kinds, alphas, xs).ravel()
    li = int(np.argmin(dline))
    la, lo = alphas[li // grid], xs[li % grid]
    best = min(best, float(dline[li]))

    aspan, ospan = 2 * np.pi / grid, 4 * extent / grid
    for _ in range(3 * refine):
        na = np.linspace(la - aspan, la + aspan, 15)
        no = np.linspace(lo - ospan, lo + ospan, 15)
        d = _line_defects(points_kinds, na, no).ravel()
        i = int(np.argmin(d))
        if d[i] < best:
            best = float(d[i])
        la, lo = na[i // 15], no[i % 15]
        aspan /= 2.5
        ospan /= 2.5

    span = 4 * extent / grid
    rspan = 2 * r * (rs[1] / rs[0] - 1) + 4 * extent / grid
    each = np.arange(cx.size)
    for _ in range(3 * refine):
        nx = np.linspace(cx - span, cx + span, 11, axis=-1)
        ny = np.linspace(cy - span, cy + span, 11, axis=-1)
        nr = np.linspace(np.maximum(r - rspan, 1e-4), r + rspan, 11, axis=-1)
        cc = (nx[:, :, None] + 1j * ny[:, None, :]).reshape(cx.size, 121)
        d = _circle_defects(points_kinds, cc, nr).reshape(cx.size, -1)
        i = np.argmin(d, axis=1)
        best = float(min(best, *d[each, i]))
        cx, cy, r = cc[each, i // 11].real, cc[each, i // 11].imag, nr[each, i % 11]
        span /= 2.5
        rspan /= 2.5
    return float(best)
