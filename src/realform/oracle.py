"""Ground-truth instance generation and brute-force confirmation.

Instances are built as real diagonalizable matrices with requested
spectral types, optionally conjugated by a common random complex matrix
(ground truth Yes with that matrix as realifier) and optionally broken
by moving one eigendirection off the preserved form (ground truth No).

The brute-force search at k = 2 sweeps circles and lines of the
extended plane and reports the best preservation defect over the grid,
confirming No verdicts independently of the decision procedures.  It
meets the fixed points one term at a time and drops a circle once its
defect provably exceeds the ones it keeps, and it can stop as soon as
its best defect falls to a given value: the k = 2 perturbation probe
stops there every phase that cannot beat the best one so far.
"""

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InfeasibleSpec, NonDiagonalizable, RepeatedEigenvalues
from .projlin import MAX_DIM, MIN_DIM, as_stack, eigensystems, modulus, proj_dists, upper_pairs
from .spectrum import KIND_ELLIPTIC, KIND_HYPERBOLIC, classify_spectra

SCRAMBLE_NONE = "none"
SCRAMBLE_GAMMA = "random_gamma"

TYPE_HYPERBOLIC = "hyperbolic"
TYPE_ELLIPTIC = "elliptic"
TYPE_MIXED = "mixed"

_RATIO_MARGIN = 0.1
_ANGLE_MARGIN = 0.1
_MAX_COND = 15.0


def _is_integer(v) -> bool:
    """An Integral that is not a bool (True is an Integral too)."""
    return isinstance(v, Integral) and not isinstance(v, bool)


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
        for name in ("k", "n_generators", "seed"):
            if not _is_integer(getattr(self, name)):
                raise InfeasibleSpec(f"{name} must be an integer")
        if self.scramble not in (SCRAMBLE_NONE, SCRAMBLE_GAMMA):
            raise InfeasibleSpec(f"scramble must be {SCRAMBLE_NONE!r} or {SCRAMBLE_GAMMA!r}")
        if not MIN_DIM <= self.k <= MAX_DIM:
            raise InfeasibleSpec(f"k must lie in [{MIN_DIM}, {MAX_DIM}]")
        if self.n_generators < 1:
            raise InfeasibleSpec("need at least one generator")
        if self.seed < 0:
            raise InfeasibleSpec("seed must be a non-negative integer")
        counts = {TYPE_HYPERBOLIC: 0, TYPE_ELLIPTIC: 0, TYPE_MIXED: 0}
        if not isinstance(self.type_mix, dict) or any(
                t not in counts or not _is_integer(v) for t, v in self.type_mix.items()):
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
            if not (isinstance(self.perturbation, tuple) and len(self.perturbation) == 2):
                raise InfeasibleSpec("perturbation must be a (generator index, magnitude) pair")
            g, mag = self.perturbation
            if not (_is_integer(g) and 0 <= g < self.n_generators) or not (
                    isinstance(mag, Real) and not isinstance(mag, bool) and 0 < mag < np.inf):
                raise InfeasibleSpec("perturbation index not an integer in range or magnitude "
                                     "not positive and finite")
        return counts


@dataclass(frozen=True)
class GeneratedInstance:
    matrices: list
    answer: str          # "yes" or "no"
    gamma: np.ndarray | None
    spec: InstanceSpec


def _sample_real_eigenvalues(rng, count):
    """Distinct reals with projective gaps from each other and their negatives."""
    out = []
    while len(out) < count:
        lam = float(rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0]))
        if all(abs(lam - v) > _RATIO_MARGIN * max(abs(lam), abs(v)) and
               abs(lam + v) > _RATIO_MARGIN * max(abs(lam), abs(v)) for v in out):
            out.append(lam)
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
    reals = _sample_real_eigenvalues(rng, n_reals)
    d = np.zeros((k, k))
    for p, (r, th) in enumerate(zip(radii, angles)):
        d[2 * p:2 * p + 2, 2 * p:2 * p + 2] = r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    diag = 2 * n_pairs + np.arange(n_reals)
    d[diag, diag] = reals
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


def _random_gamma(rng, k, max_cond):
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
    phase).  The eigendata are the stacked pass's (``_spectra``).
    Returns (eigenvalues, eigenvector matrix, offset).
    """
    stack, spectra, exc = _spectra(np.asarray(m, dtype=complex)[None], cfg)
    if exc is not None:
        raise exc
    lam, vecs = stack.eigenvalues[0], np.column_stack(stack.rows[0])
    k, v = len(lam), vecs[:, 0]

    def perp(u):
        w = u - v * (np.vdot(v, u) / np.vdot(v, v))
        n = np.linalg.norm(w)
        return None if n < cfg.rank_tol * np.linalg.norm(u) else w / n

    delta = None
    if spectra[0].labels[0] == "hyperbolic":
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
    return lam, vecs, delta


def _apply_perturbation(lam, vecs, delta, magnitude):
    out = vecs.copy()
    out[:, 0] = vecs[:, 0] + magnitude * np.linalg.norm(vecs[:, 0]) * delta
    return out @ np.diag(lam) @ np.linalg.inv(out)


def _perturb_eigendirection(ms, g_idx, magnitude, rng, gamma, cfg):
    """Replace one generator by a copy with one eigendirection moved.

    Hyperbolic directions start from the deterministic form-normal
    offset.  At k = 2 the candidate circles can track part of the
    tangent plane and clustered configurations give them leverage, so a
    few offset phases are probed against the form search and the most
    incompatible one is kept; the achieved defect is returned so the
    caller can resample degenerate geometry.
    """
    lam, vecs, delta = _perturbation_delta(ms[g_idx], rng, gamma, cfg)
    if len(lam) != 2:
        out = list(ms)
        out[g_idx] = _apply_perturbation(lam, vecs, delta, magnitude)
        return out, None
    best, best_defect = None, -1.0
    for j in range(4):
        cand = list(ms)
        cand[g_idx] = _apply_perturbation(lam, vecs, delta * np.exp(1j * np.pi * j / 4), magnitude)
        # a phase whose search falls to the best defect so far cannot be
        # kept, so its search stops there
        defect = brute_rform_search(cand, grid=40, refine=3, cfg=cfg, stop_at=best_defect)
        if defect > best_defect:
            best, best_defect = cand, defect
    return best, best_defect


def _spectra(ms, cfg):
    """The EigenStack and SpectralClasses of the matrices of the stack ms
    (n, k, k) before the first one ``eigensystems`` refuses, and that
    matrix's error (None when there is none)."""
    stack, exc = eigensystems(ms, cfg)
    return stack, classify_spectra(stack.eigenvalues, cfg), exc


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

    answer = "yes"
    for _ in range(200):
        try:
            ms = [_generator(rng, spec.k, t) for t in order]
            # the gates of the matrices eig accepts come before its error
            _, spectra, exc = _spectra(np.array(ms, dtype=complex), cfg)
            for sc, t in zip(spectra, order):
                if not (sc.compatible and sc.generic):
                    raise _Resample
                if t == TYPE_HYPERBOLIC and sc.kind != KIND_HYPERBOLIC:
                    raise _Resample
                if t == TYPE_ELLIPTIC and spec.k != 3 and sc.kind != KIND_ELLIPTIC:
                    raise _Resample
            if exc is not None:
                raise exc
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
                stack, exc = eigensystems(np.array(ms, dtype=complex), cfg)
                if exc is not None:
                    raise exc
                dirs = stack.rows.reshape(-1, spec.k)
                i, j = upper_pairs(len(dirs))
                if proj_dists(dirs[i], dirs[j]).min() < min(0.08, 0.6 / len(dirs)):
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


def _fixed_points_cp1(ms: np.ndarray, cfg):
    """The fixed points on the extended plane and the spectral kind of
    each matrix of the stack ms (n, 2, 2), as ((p, q), kind) pairs."""
    stack, spectra, exc = _spectra(ms, cfg)
    if exc is not None:
        raise exc
    return [(tuple(complex(np.inf) if abs(b) <= cfg.deg_tol else a / b for a, b in rows), sc.kind)
            for rows, sc in zip(stack.rows, spectra)]


def _terms(points_kinds):
    """The one-point terms of the defect, two per generator in order, as
    three arrays: each fixed point z, the point w its image must meet (z
    itself when the generator is hyperbolic, its partner when elliptic)
    and the chordal constant 1 + |w|^2 (1 where w is infinite)."""
    z = np.array([x for pts, _ in points_kinds for x in pts], dtype=complex)
    w = np.array([x for (p, q), kind in points_kinds
                  for x in ((p, q) if kind == KIND_HYPERBOLIC else (q, p))], dtype=complex)
    # squared as Python floats, by libm's pow, as |w| of one point was: a
    # numpy array's ** 2 (m * m) can round the other way
    return z, w, np.array([1.0 if m == np.inf else 1 + m ** 2 for m in modulus(w).tolist()])


def _gap_vec(z: np.ndarray, w, k) -> np.ndarray:
    """Chordal distance between the sphere points ``z`` and ``w``, where
    ``k`` is w's constant 1 + |w|^2; w and k are one point or arrays that
    broadcast with z."""
    zinf, winf = ~np.isfinite(z), np.isinf(w)
    any_z, any_w = zinf.any(), winf.any()
    zf = np.where(zinf, 0, z) if any_z else z
    gap = 2 * np.abs(zf - (np.where(winf, 0, w) if any_w else w))
    if any_w:
        gap = np.where(winf, 2.0, gap)
    gap = gap / np.sqrt((1 + np.abs(zf) ** 2) * k)
    return np.where(zinf, np.where(winf, 0.0, 2.0 / np.sqrt(k)), gap) if any_z else gap


def _invert_vec(z, c: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Image of the points ``z`` under inversion about the circles of
    centers ``c`` and squared radii ``r2``, which broadcast together (a
    product grid (..., m, 1) x (..., 1, n), or one flat list of circles),
    and with z (one point, or a column of them); a point at infinity maps
    to the centers themselves, a point on a center to infinity."""
    zinf = np.isinf(z)
    any_z = zinf.any()
    d = (np.where(zinf, 0, z) if any_z else z) - c
    small = np.abs(d) < 1e-300
    if small.any():
        out = np.where(small, np.inf, c + r2 / np.conj(np.where(small, 1, d)))
    else:
        out = c + r2 / np.conj(d)
    return np.where(zinf, c, out) if any_z else out


def _reflect_vec(z, e2: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Image of the points ``z`` under reflection in the lines through
    ``p0`` of direction squared ``e2``; a point at infinity stays there."""
    zinf = np.isinf(z)
    if not zinf.any():
        return e2 * np.conj(z - p0) + p0
    return np.where(zinf, np.inf, e2 * np.conj(np.where(zinf, 0, z) - p0) + p0)


def _term_gaps(terms, image, ndim: int) -> np.ndarray:
    """Every term's gap at every candidate of ``ndim`` axes, (2G, ...), in
    one broadcast: ``image`` maps a column of points to their images."""
    z, w, k = (a.reshape((-1,) + (1,) * ndim) for a in terms)
    return _gap_vec(image(z), w, k)


def _generator_defects(points_kinds, c: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Defect of each generator (rows) at each circle of centers ``c`` and
    squared radii ``r2``, two short flat arrays of one length: every term
    meets every circle in one broadcast."""
    gaps = _term_gaps(_terms(points_kinds), lambda z: _invert_vec(z, c, r2), 1)
    return gaps.reshape(-1, 2, c.size).max(axis=1)


def _circle_defects(points_kinds, c: np.ndarray, r: np.ndarray, bound: np.ndarray,
                    order: np.ndarray) -> np.ndarray:
    """Worst defect of every circle of the product grids of centers ``c``
    (s, m) and radii ``r`` (s, n), as (s, m * n), center-major, wherever it
    is at most ``bound[b]`` for grid b, and inf elsewhere.

    The generators are met in ``order``, each one term at a time, and a
    circle is dropped once the worst term met so far exceeds its bound:
    only the first term meets the whole grid, every later one only the
    circles still kept.  The worst defect is a max, so the value of every
    kept circle is exact.
    """
    s, m = c.shape
    size, n = m * r.shape[1], r.shape[1]
    z, w, k = _terms(points_kinds)
    ts = [t for g in order for t in (2 * g, 2 * g + 1)]
    r2 = r ** 2
    if ts:
        worst = _gap_vec(_invert_vec(z[ts[0]], c[:, :, None], r2[:, None, :]), w[ts[0]], k[ts[0]])
    else:
        worst = np.zeros((s, size))
    # from here on, the kept circles' raveled indices, worst defects,
    # centers, squared radii and bounds
    i = np.flatnonzero(worst.reshape(s, size) <= bound[:, None])
    worst = worst.ravel()[i]
    c, r2, cut = c.ravel()[i // n], r2.ravel()[i // size * n + i % n], bound[i // size]
    for t in ts[1:]:
        worst = np.maximum(worst, _gap_vec(_invert_vec(z[t], c, r2), w[t], k[t]))
        keep = worst <= cut
        i, worst, c, r2, cut = i[keep], worst[keep], c[keep], r2[keep], cut[keep]
    out = np.full(s * size, np.inf)
    out[i] = worst
    return out.reshape(s, size)


def _line_defects(points_kinds, alpha: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Worst defect of every line at an angle of ``alpha`` (a,) and an
    offset of ``offset`` (o,), as (a, o): angle-major once raveled."""
    e = np.exp(1j * alpha)[:, None]
    e2 = e * e
    p0 = offset * 1j * e
    gaps = _term_gaps(_terms(points_kinds), lambda z: _reflect_vec(z, e2, p0), 2)
    return gaps.max(axis=0, initial=0.0)


def _stage_bests(points_kinds, grid: int, refine: int):
    """Yield the best defect of each stage of the search in turn: each
    coarse chunk of circles, each circle refinement round, the coarse
    lines and each line refinement round."""
    extent = 2.0
    for pts, _ in points_kinds:
        for p in pts:
            if not np.isinf(p):
                extent = max(extent, 1.5 * abs(p))
    every = np.arange(len(points_kinds))
    xs = np.linspace(-extent, extent, grid)
    rs = np.geomspace(0.05, 2 * extent, grid)
    cgrid = (xs[:, None] + 1j * xs[None, :]).ravel()

    seeds = []
    step = max(1, _CHUNK // grid)
    for start in range(0, cgrid.size, step):
        cs = cgrid[start:start + step]
        # the _STARTS-th smallest defect of every 7th circle bounds the
        # chunk's, as that of every 49th bounds the 7th's: no subset's is
        # below its superset's.  Each of those circles is a 1 x 1 grid.
        bound = np.inf
        for stride in (49, 7):
            sub = np.arange(0, cs.size * grid, stride)
            worst = _circle_defects(points_kinds, cs[sub // grid, None], rs[sub % grid, None],
                                    np.full(sub.size, bound), every)[:, 0]
            if worst.size >= _STARTS:
                bound = np.partition(worst, _STARTS - 1)[_STARTS - 1]
        d = _circle_defects(points_kinds, cs[None], rs[None], np.array([bound]), every)[0]
        kept = np.flatnonzero(d <= bound)
        top = kept[np.argsort(d[kept])[:_STARTS]]
        seeds.extend((float(d[i]), cs[i // grid].real, cs[i // grid].imag, rs[i % grid])
                     for i in top)
        yield float(d[top[0]])
    seeds.sort()
    _, cx, cy, r = np.array(seeds[:_STARTS]).T

    span = 4 * extent / grid
    rspan = 2 * r * (rs[1] / rs[0] - 1) + 4 * extent / grid
    each = np.arange(cx.size)
    for _ in range(3 * refine):
        nx = np.linspace(cx - span, cx + span, 11, axis=-1)
        ny = np.linspace(cy - span, cy + span, 11, axis=-1)
        nr = np.linspace(np.maximum(r - rspan, 1e-4), r + rspan, 11, axis=-1)
        cc = (nx[:, :, None] + 1j * ny[:, None, :]).reshape(cx.size, 121)
        # a grid's middle circle bounds its minimum; the generators worst
        # over the middle circles go first
        dmid = _generator_defects(points_kinds, cc[:, 60], nr[:, 5] ** 2)
        d = _circle_defects(points_kinds, cc, nr, dmid.max(axis=0, initial=0.0),
                            np.argsort(-dmid.max(axis=1), kind="stable"))
        i = np.argmin(d, axis=1)
        yield float(min(d[each, i]))
        cx, cy, r = cc[each, i // 11].real, cc[each, i // 11].imag, nr[each, i % 11]
        span /= 2.5
        rspan /= 2.5

    alphas = np.linspace(0, np.pi, grid, endpoint=False)
    dline = _line_defects(points_kinds, alphas, xs).ravel()
    li = int(np.argmin(dline))
    la, lo = alphas[li // grid], xs[li % grid]
    yield float(dline[li])

    aspan, ospan = 2 * np.pi / grid, 4 * extent / grid
    for _ in range(3 * refine):
        na = np.linspace(la - aspan, la + aspan, 15)
        no = np.linspace(lo - ospan, lo + ospan, 15)
        d = _line_defects(points_kinds, na, no).ravel()
        i = int(np.argmin(d))
        yield float(d[i])
        la, lo = na[i // 15], no[i % 15]
        aspan /= 2.5
        ospan /= 2.5


def brute_rform_search(ms, grid: int = 200, refine: int = 4,
                       cfg: Tolerances = DEFAULT_TOLERANCES, *, stop_at: float = -np.inf) -> float:
    """Best preservation defect over sampled circles and lines (k = 2).

    Hyperbolic fixed points must lie on the candidate form, elliptic
    pairs must be swapped by inversion about it; defects are chordal.
    Sweeps the center x center x radius grid, then shrinks the grid
    around the best few coarse circles (the minimum can sit in a
    different basin than the coarse argmin) so a genuinely preserved
    form is located to high accuracy, then sweeps the line angle x
    offset grid and refines its best line.  Each kernel evaluates a whole
    product grid at once; the refinement runs every start together.

    A generator's defect is the max of two one-point terms (p to p and q
    to q when hyperbolic, p to q and q to p when elliptic), each one
    inversion and one chordal gap, and a circle's defect the max over
    every term.  The circle grids meet the terms one at a time and drop a
    circle once its running max exceeds a bound no kept circle is above:
    in a coarse chunk, the ``_STARTS``-th smallest defect over every 7th
    circle (no subset's is below the chunk's own), itself found with that
    over every 49th circle as its bound; in a refinement round, the
    defect of each grid's middle circle, with the generators worst over
    the middle circles met first.  The line grids and the middle circles
    are small and take every term in one broadcast.  A kept
    circle's defect is exact, so the search returns the float of
    evaluating every circle.  Where defects tie exactly at a chunk's cut,
    the starts picked among the tied circles may differ from that
    evaluation's, since quicksort's pick among ties depends on the whole
    array it sorts.

    The stages run in turn (coarse circles, circle refinement, coarse
    lines, line refinement) and the search returns as soon as its best
    defect is at most ``stop_at``: a caller that only needs to know
    whether the defect exceeds a value stops there.  The default runs
    every stage.  The line and circle stages do not depend on each
    other, so a full search returns the same float in any stage order.
    """
    if not (_is_integer(grid) and _is_integer(refine)):
        raise ValueError(f"grid and refine must be integers, got grid={grid!r}, refine={refine!r}")
    if grid < 2 or refine < 0:
        raise ValueError(f"need grid >= 2 and refine >= 0, got grid={grid}, refine={refine}")
    if isinstance(stop_at, bool) or not isinstance(stop_at, Real) or np.isnan(stop_at):
        raise ValueError(f"stop_at must be a real number, got stop_at={stop_at!r}")
    ms = list(ms)
    # the shape rule comes before eig; an empty collection has no defect
    a = as_stack(ms) if ms else np.zeros((0, 2, 2), dtype=complex)
    if a.shape[1:] != (2, 2):
        raise ValueError(f"matrix 0: the search needs 2x2 matrices, got shape {a.shape[1:]}")
    points_kinds = _fixed_points_cp1(a, cfg)
    best = np.inf
    for stage_best in _stage_bests(points_kinds, grid, refine):
        best = min(best, stage_best)
        if best <= stop_at:
            break
    return float(best)
