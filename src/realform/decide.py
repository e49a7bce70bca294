"""Decision procedures for simultaneous conjugacy into PGL(k,R).

Five routes are implemented and cross-checked:

* ``Dim2Lemmas``    -- cross-ratio conditions on CP^1 fixed points (k = 2);
* ``Dim3FG``        -- flag cross ratios and triple ratios at k = 3,
                       including a synthetic hyperbolic base built from
                       elliptic eigendata when fewer than two strictly
                       hyperbolic generators exist;
* ``DimKFG``        -- the same flag coordinates at general k;
* ``DimKCrossOnly`` -- per-eigendirection cross-ratio conditions against
                       a base flag pair and one reference direction;
* ``DirectConjugation`` -- solve for the conjugation respecting all
                       eigendata; no genericity precondition, a
                       definite answer unless certification fails.

``direct`` is the one place where a verdict is solved and certified: an
explicit realifier gamma is produced and the maximum imaginary residual
of gamma^{-1} M gamma over the collection must be below ``cert_tol``.

The four coordinate routes share one runner (``_run_route``): each
supplies the k it handles and a function building its condition list
against one base chosen by a structural rule.  The runner gates k and
genericity, builds the conditions and reads them against the direct
solve by one rule.  When they agree, the answer is the solve's, with its
gamma, reported under the route's method with the route's conditions.
When the ``cross`` conditions fail and the solve finds a form, the
answer is the solve's: at an ill-conditioned eigenbasis rounding can
carry a ``cross`` defect just past ``cr_tol``.
Any other disagreement is ``inconclusive``.  ``auto`` solves once and
hands that solve to each route it tries.

Every route reads the spectral pass's arrays (``GenInfo``): ``dim2``
its cross ratios from the eigendirection rows, the flag routes every
flag's genericity and triple ratios from minors in one generator's
eigen-coordinate frame (``flag_set``).
"""

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .coords import (
    CrossRatio,
    _triple_minors,
    arg_sum_is_zero,
    conj_pair_defect,
    conj_product_defect,
    frame_cross_ratio_sets,
    frame_triple_ratio_sets,
    in_unit_circle,
    is_real,
    is_real_extended,
    is_real_positive,
    product_in_unit_circle,
    ratio_values,
    row_cross_ratios,
    unit_product_defect,
)
from .errors import (
    DegenerateFrame,
    GenericityViolation,
    IncompatibleEigenvalues,
    NoConjugation,
    NumericalDegeneracy,
    RealformError,
    SharedEigendirections,
    SpectralPreconditionError,
)
from .flags import (
    _compositions,
    first_nongeneric_coords,
    frame_generic,
    frame_minors,
    window_table,
)
# not used here, but kept importable: perfbench/spans.py wraps them by module global
from .coords import cross_ratio, cross_ratio_set, triple_ratio_set  # noqa: F401
from .flags import (flag_pair_from_eigensystem, generic_position, generic_with_point,  # noqa: F401
                    make_flag, mirrored_pair_flag, point_flag)
from .projlin import eig  # noqa: F401
from .rform import preserves  # noqa: F401
from .spectrum import type_transformation  # noqa: F401
from .projlin import (
    MAX_DIM,
    MIN_DIM,
    as_stack,
    canonical_matrix,
    check_matrix,
    eigensystems,
    frame_basis,
    in_band,
    modulus,
    proj_dists,
)
from .rform import Multiplicity, conjugation_witness, realifier
from .spectrum import (
    HYPERBOLIC,
    KIND_ELLIPTIC,
    KIND_HYPERBOLIC,
    KIND_INCOMPATIBLE,
    KIND_MIXED,
    classify_spectra,
)

METHOD_DIM2 = "Dim2Lemmas"
METHOD_DIM3 = "Dim3FG"
METHOD_FG = "DimKFG"
METHOD_CROSS = "DimKCrossOnly"
METHOD_DIRECT = "DirectConjugation"

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Condition:
    name: str
    value: complex
    requirement: str
    passed: bool


@dataclass
class Certificate:
    gamma: np.ndarray | None = None
    residual: float | None = None
    conditions: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)


@dataclass(frozen=True)
class Verdict:
    answer: str
    multiplicity: Multiplicity | None
    method: str


@dataclass(frozen=True)
class GenInfo:
    """One generator of a spectral pass: its slices of the pass's stacked
    arrays (``EigenStack``) and its spectral classification.

    Every route reads these arrays alone; no ProjPoint or Flag is built.
    A flag of the generator is its rows in some order (the eigenvalue
    order, or pairs mirrored about the middle), and ``frame`` reads any
    row in the eigen-coordinate frame, where the eigenflag is the unit
    rows and its reverse the unit rows reversed.  Every flag route reads
    the independence of the eigendirections from ``frame_rcond`` alone.
    """

    index: int
    sclass: object
    # s_min / s_max of the eigendirection rows, the measure ``make_flag``
    # tests for independence
    frame_rcond: float
    matrix: np.ndarray        # brought ``in_band``
    eigenvalues: np.ndarray   # (k,), in the (argument, magnitude) order
    rows: np.ndarray          # (k, k): rows[j] the canonical direction of eigenvalues[j]

    @property
    def kind(self):
        return self.sclass.kind

    @property
    def generic(self):
        return self.sclass.generic

    def labeling(self):
        return self.sclass.labelings[0]

    def hyp_indices(self):
        return [i for i, l in enumerate(self.labeling().labels) if l == HYPERBOLIC]

    @functools.cached_property
    def frame(self) -> np.ndarray:
        """Inverse of the eigendirection matrix: v @ frame are v's
        eigen-coordinates.  Read only when ``frame_rcond`` clears rank_tol."""
        return np.linalg.inv(self.rows)


def spectral_pass(ms, cfg: Tolerances = DEFAULT_TOLERANCES):
    """Eigendecompose and classify every generator in one stacked pass.

    The collection goes through ``as_stack`` first, so an empty one or
    one of mismatched shapes raises before any matrix is decomposed.
    Returns the GenInfo of the generators before the first that fails a
    gate (an incompatible spectrum is a class, not a failure), and that
    failure, its message prefixed with "matrix {index}: ", or None.  Each
    GenInfo holds its slices of the pass's arrays (``EigenStack``); no
    ProjPoint is built.  One s-only SVD of the stacked direction rows, as
    ``make_flag`` scales them, measures every eigenbasis.
    """
    stack, exc = eigensystems(as_stack(ms), cfg)
    infos = []
    if stack is not None:
        classes = classify_spectra(stack.eigenvalues, cfg)
        s = np.linalg.svd(stack.rows, compute_uv=False)
        infos = [GenInfo(i, sc, float(si[-1] / si[0]), *parts)
                 for i, (sc, si, *parts) in enumerate(zip(classes, s, *stack))]
    if exc is not None:
        exc = type(exc)(f"matrix {len(infos)}: {exc}")
    return infos, exc


def prepare(ms, cfg: Tolerances = DEFAULT_TOLERANCES):
    """Eigendecompose and classify every generator; the first generator in
    index order that fails a gate or has an incompatible spectrum raises."""
    infos, exc = spectral_pass(ms, cfg)
    bad = next((info.index for info in infos if info.kind == KIND_INCOMPATIBLE), None)
    if bad is not None:
        raise IncompatibleEigenvalues(f"matrix {bad}: eigenvalues admit no organizing real line")
    if exc is not None:
        raise exc
    return infos


def verify_certificate(ms, gamma, cfg: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Max imaginary residual of gamma^{-1} M gamma after optimal rephasing.

    Gamma and each M are brought ``in_band`` and each product divided by
    its largest entry's magnitude, so the residual does not depend on
    their scales.  The phase minimizing the squared imaginary part has the
    closed form exp(-i arg(sum of squared entries) / 2).  A residual that
    is not finite reads as inf.  Independent of how gamma was produced.
    Raises ValueError when the collection is empty or of mismatched
    shapes (``as_stack``), or when gamma's size differs from the matrices'.
    """
    gamma = check_matrix(gamma, cfg)
    ms = as_stack(ms)
    if ms.shape[1:] != gamma.shape:
        raise ValueError(f"gamma has shape {gamma.shape} but the matrices {ms.shape[1:]}")
    n = np.linalg.inv(gamma) @ in_band(ms) @ gamma
    with np.errstate(invalid="ignore"):   # a NaN residual is reported as inf
        n = n / np.abs(n).max(axis=(1, 2), keepdims=True)
        r = n * np.exp(-0.5j * np.angle((n * n).sum(axis=(1, 2))))[:, None, None]
        worst = float((np.abs(r.imag).max(axis=(1, 2)) / np.abs(r).max(axis=(1, 2))).max())
    return worst if math.isfinite(worst) else math.inf


def _require_generic(infos):
    bad = [info.index for info in infos if not info.generic]
    if bad:
        raise SpectralPreconditionError(
            f"generators {bad} have non-generic eigenvalues; coordinate methods need a unique labeling"
        )


def _run_route(ms, cfg, infos, method, ks, build, direct=None):
    """Run one coordinate route and read its conditions against the
    direct solve.

    ``ks`` is the (lowest, highest) k the route handles; ``build``
    returns the route's (conditions, diagnostics) and raises a
    RealformError when the geometry is not generic.  ``direct`` is
    ``decide_direct``'s result on the same generators, solved here when
    not given.
    """
    infos = prepare(ms, cfg) if infos is None else infos
    lo, hi = ks
    if not lo <= len(infos[0].eigenvalues) <= hi:
        raise SpectralPreconditionError(
            f"this method needs {lo}x{lo} input" if lo == hi else f"this method needs k >= {lo}")
    _require_generic(infos)
    conditions, diagnostics = (build(infos, cfg) if len(infos) > 1
                               else ([], ["single compatible generator"]))
    solved, cert = direct or decide_direct(None, cfg, infos=infos)
    passed = all(c.passed for c in conditions)
    if passed == (solved.answer == YES):
        if not passed and method == METHOD_CROSS:
            diagnostics.append("No confirmed by the direct method")
        return (replace(solved, method=method),
                replace(cert, conditions=conditions, diagnostics=diagnostics))
    if method == METHOD_CROSS and not passed:
        # rounding at an ill-conditioned base can carry a defect past cr_tol
        return solved, replace(cert, diagnostics=cert.diagnostics + [
            "cross-only conditions failed but the direct method found a form"])
    diagnostics.append(f"coordinate conditions {'pass' if passed else 'fail'} "
                       f"but the direct method answers {solved.answer}")
    return Verdict(INCONCLUSIVE, None, method), Certificate(None, None, conditions, diagnostics)


# ---------------------------------------------------------------------------
# dimension 2

def _reference(base_rows, other: GenInfo, cfg):
    """Index of the first eigendirection of ``other`` distinct from both
    base directions (``proj_dist`` above sep_tol), or None."""
    dist = proj_dists(np.repeat(other.rows, 2, axis=0), np.tile(base_rows, (2, 1)))
    ok = (dist.reshape(2, 2) > cfg.sep_tol).all(axis=1).tolist()
    return ok.index(True) if True in ok else None


def _first_valid_pair(cands, cfg):
    """The first pair (a, b) of ``cands`` and the index of b's reference
    direction against a, or None."""
    for a, b in itertools.combinations(cands, 2):
        ref = _reference(a.rows, b, cfg)
        if ref is not None:
            return a, b, ref
    return None


def _values(cr: CrossRatio) -> list:
    """The values of a one-axis array of cross ratios, as ``ratio_values``."""
    return ratio_values(cr[None])[0]


def _dim2_conditions(infos, cfg):
    """Cross ratios of the fixed points against a hyperbolic base pair,
    else an elliptic base pair, else the lone hyperbolic-elliptic pair.

    Each condition reads one or two cross ratios [base-, b, base+, d] of
    eigendirection rows; every one is evaluated in one array expression."""
    hyp = [i for i in infos if i.kind == KIND_HYPERBOLIC]
    ell = [i for i in infos if i.kind == KIND_ELLIPTIC]
    quads, checks = [], []   # quads (base, b, d); checks (name, requirement, quad positions)

    def check(name, requirement, *qs):
        checks.append((name, requirement, range(len(quads), len(quads) + len(qs))))
        quads.extend(qs)

    if (pair := _first_valid_pair(hyp, cfg)) is not None:
        h1, h2, ref = pair
        check(f"[H{h1.index},H{h2.index}]", "extended real", (h1, h2.rows[0], h2.rows[1]))
        for other in infos:
            if other is h1 or other is h2:
                continue
            qs = [(h1, row, h2.rows[ref]) for row in other.rows]
            if other.kind == KIND_HYPERBOLIC:
                for tag, q in zip("-+", qs):
                    check(f"[h{h1.index}-,h{other.index}{tag},h{h1.index}+,ref]", "extended real", q)
            else:
                check(f"[h{h1.index}-,e{other.index}±,h{h1.index}+,ref] pair", "conjugate pair", *qs)
    elif (pair := _first_valid_pair(ell, cfg)) is not None:
        e1, e2, _ = pair
        check(f"[E{e1.index},E{e2.index}]", "positive real", (e1, *e2.rows))
        for other in infos:
            if other is e1 or other is e2:
                continue
            if other.kind == KIND_ELLIPTIC:
                # skip a base whose fixed points other shares: other keeps every circle it keeps
                for base in (b for b in (e1, e2) if _reference(b.rows, other, cfg) is not None):
                    check(f"[E{base.index},E{other.index}]", "positive real", (base, *other.rows))
            else:
                for tag, row in zip("-+", other.rows):
                    check(f"[e{e1.index}-,h{other.index}{tag},e{e1.index}+,e{e2.index}∓] product",
                          "unit circle", (e1, row, e2.rows[0]), (e1, row, e2.rows[1]))
    elif len(hyp) == 1 and len(ell) == 1:
        (h,), (e,) = hyp, ell
        check(f"[h{h.index}-,e{e.index}-,h{h.index}+,e{e.index}+]", "unit circle", (h, *e.rows))
    else:
        raise SharedEigendirections("no base pair with distinct eigendirection sets")

    base = np.array([q[0].rows for q in quads])
    cr = row_cross_ratios(base[:, 0], np.array([q[1] for q in quads]), base[:, 1],
                          np.array([q[2] for q in quads]))
    tol, values = cfg.cr_tol, _values(cr)
    tests = {"extended real": is_real_extended(cr, tol), "positive real": is_real_positive(cr, tol),
             "unit circle": in_unit_circle(cr, tol)}
    conditions = []
    for name, requirement, pos in checks:
        if len(pos) == 1:
            value, passed = values[pos[0]], tests[requirement][pos[0]]
        elif requirement == "conjugate pair":
            value = conj_pair_defect(cr[pos[0]], cr[pos[1]])
            passed = value <= tol
        else:
            c1, c2 = cr[pos[0]], cr[pos[1]]
            value = (complex(np.inf) if c1.infinite or c2.infinite
                     else values[pos[0]] * values[pos[1]])
            passed = product_in_unit_circle(c1, c2, tol)
        conditions.append(Condition(name, complex(value), requirement, bool(passed)))
    return conditions, []


def decide_pgl2(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None, direct=None):
    """Cross-ratio decision on CP^1 fixed-point configurations."""
    return _run_route(ms, cfg, infos, METHOD_DIM2, (2, 2), _dim2_conditions, direct)


def condition_functions_pgl2(ms, cfg: Tolerances = DEFAULT_TOLERANCES):
    """The 2n-3 condition-function values for n generators on CP^1.

    Requires the first two generators hyperbolic with distinct
    eigendirection pairs; all values vanish exactly when the collection
    is simultaneously conjugate into PGL(2,R).
    """
    infos = prepare(ms, cfg)
    if len(infos[0].eigenvalues) != 2:
        raise SpectralPreconditionError("condition functions are defined for 2x2 input")
    _require_generic(infos)
    if len(infos) < 2:
        raise SpectralPreconditionError("need at least two generators")
    m1, m2 = infos[0], infos[1]
    if m1.kind != KIND_HYPERBOLIC or m2.kind != KIND_HYPERBOLIC:
        raise SpectralPreconditionError("first two generators must be hyperbolic")
    if _reference(m1.rows, m2, cfg) is None:
        raise SharedEigendirections("first two generators share their eigendirection pair")

    # [m1-, b, m1+, m2+] for b = m2-, then both directions of every later generator
    b = np.concatenate([m2.rows[:1]] + [info.rows for info in infos[2:]])
    z = _values(row_cross_ratios(m1.rows[0], b, m1.rows[1], m2.rows[1]))
    values = [z[0] - np.conj(z[0])]
    for info, zm, zp in zip(infos[2:], z[1::2], z[2::2]):
        if info.kind == KIND_HYPERBOLIC:
            values.append(zm - np.conj(zm))
            values.append(zp - np.conj(zp))
        else:
            values.append((zm - np.conj(zm)) - (np.conj(zp) - zp))
            values.append((zm + np.conj(zm)) - (np.conj(zp) + zp))
    return values


# ---------------------------------------------------------------------------
# flag coordinate methods (k >= 3)

def _require_independent(info: GenInfo, cfg):
    """A flag of ``info``'s eigendirections needs them independent, as
    ``make_flag`` tests them.  Every flag route reads that from
    ``frame_rcond``, which the spectral pass measured."""
    if not info.frame_rcond > cfg.rank_tol:
        raise GenericityViolation("flag spanning vectors are linearly dependent")


def flag_base(infos, what: str):
    """The base of the flag coordinates: the first two strictly hyperbolic
    generators g and h, whose eigenbasis flags are (A, C) and (B, D), and
    every other generator in index order, as (g, h, others).  Fewer than
    two raise GenericityViolation naming ``what``."""
    hyp = [info for info in infos if info.kind == KIND_HYPERBOLIC]
    if len(hyp) < 2:
        raise GenericityViolation(f"{what} needs two strictly hyperbolic generators")
    g, h = hyp[:2]
    return g, h, [info for info in infos if info is not g and info is not h]


@functools.lru_cache(maxsize=None)
def _triple_windows(k: int):
    """Positions among the compositions of ``window_table((k,) * 4, k)``
    of the minors that r3(A, B, C) and r3(A, D, C) read: (i, j, l, 0) and
    (i, 0, l, j) for each composition (i, j, l) of k into parts below k."""
    index = {c: n for n, c in enumerate(window_table((k,) * 4, k)[0])}
    three = _compositions((k - 1,) * 3, k)
    positions = np.array([[index[i, j, l, 0] for i, j, l in three],
                          [index[i, 0, l, j] for i, j, l in three]])
    positions.flags.writeable = False
    return positions


def flag_set(g: GenInfo, h: GenInfo, pairs, cfg: Tolerances = DEFAULT_TOLERANCES):
    """The Fock-Goncharov coordinates of flags against two eigenbasis flag pairs.

    (A, C) and (B, D) are the eigenbasis flag pairs of the strictly
    hyperbolic generators g and h; ``pairs`` lists (generator, rows of
    beta), beta' being beta reversed.  Everything is read in g's
    eigen-coordinate frame, where A and C are unit rows: one stacked
    minor evaluation per size (``flags.frame_generic``) checks (A, B, C,
    D) and every (A, beta, C, D) for generic position and gives every
    triple ratio; the first fault in generator order raises, every flag
    checked before any coordinate is computed.  One evaluation then gives
    the cross ratios of B's line and of every beta's line, and one more
    the triple ratios (``coords.frame_triple_ratio_sets``), in that order.

    Returns the cross ratios, one row per line (B, then each beta and
    beta'), and the triple ratio values, one row per set: r3(A, B, C),
    r3(A, C, D), then r3(A, beta, C) and r3(A, beta', C) of each pair.
    """
    for info in (g, h):
        _require_independent(info, cfg)
    k = len(g.rows)
    flags = np.array([h.rows] + [f for _, beta in pairs for f in (beta, beta[::-1])])
    x, minors, generic = frame_generic(g.rows, g.frame, g.frame_rcond, flags, cfg)
    generic = generic.tolist()
    if not generic[0]:
        raise GenericityViolation("base flags are not in generic position")
    for m, (info, _) in enumerate(pairs):
        _require_independent(info, cfg)
        if not (generic[2 * m + 1] and generic[2 * m + 2]):
            raise GenericityViolation(f"generator {info.index}: flags not in generic position")
    crs = frame_cross_ratio_sets(x[:, 0], x[0, -1])
    b_pos, d_pos = _triple_windows(k)
    triples, errors = frame_triple_ratio_sets(
        g.rows, np.concatenate([flags[:1], flags[:1, ::-1], flags[1:]]),
        np.concatenate([minors[:1, b_pos], minors[:1, d_pos], minors[1:, b_pos]]), cfg, inverted=(1,))
    error = next((e for e in errors if e is not None), None)
    if error is not None:
        raise error
    return crs, triples


def _mirrored_rows(info: GenInfo):
    """Rows of the flag of a generator with at most one hyperbolic direction.

    Pairs sit symmetrically about the middle, (p1, ..., pm, h, pm', ...,
    p1'), so the reversed flag lists the partners step by step, as
    ``flags.mirrored_pair_flag`` orders them.
    """
    pairing = info.labeling().pairing
    return info.rows[[p for p, _ in pairing] + info.hyp_indices() + [q for _, q in pairing[::-1]]]


def _columns(crs, L, tol):
    """The conditions of every line of ``crs`` as (hyperbolic, pair) lists of
    columns (suffix, requirement, values, passed), one entry per line.  A
    hyperbolic column reads its line alone; a pair column ties line r to
    its partner, line r + 1.

    The base flag lists L pair-derived directions first, then hyperbolic
    ones; L = 0 is the all-hyperbolic base.  Within the pair block the
    ratios live on the unit circle and their arguments telescope to full
    turns; past it they are real.  Each requirement is read once over all
    lines, then split into columns; the pair block's only when L > 0.
    """
    K, n = crs.num.shape[1], max(L - 3, 0)
    values, real = list(zip(*ratio_values(crs))), is_real(crs, tol).T.tolist()
    b, p = crs[:-1], crs[1:]
    conj = conj_pair_defect(b, p)
    hyp = [(f"[{j}]", "real", values[j], real[j]) for j in range(L, K)]
    # a pair column holds its defects until the return reads them
    pair = [(f"[{j}]", "conjugate pair", conj[:, j]) for j in range(L, K)]
    if L:   # the pair block ahead of the hyperbolic directions; an argument sum's value is 0
        zeros, unit = [0j] * len(crs.num), in_unit_circle(crs, tol).T.tolist()
        sums = arg_sum_is_zero([crs[:, 0:n:2], crs[:, 1:n + 1:2], crs[:, 2:n + 2:2]], (1, 2, 1), tol)
        hyp = ([(f"[{j}]", "unit circle", values[j], unit[j]) for j in range(0, min(L, K), 2)] + hyp
               + [(f" argsum[{j},{j+1},{j+2}]", "0 mod 2pi", zeros, ok)
                  for j, ok in zip(range(0, n, 2), sums.T.tolist())])
        product = unit_product_defect(b, p)
        # column j - 1 ties ratio j of line r to ratios j - 1, j, j + 1 of its partner
        triple = conj_product_defect(b[:, 1:-1], [p[:, :-2], p[:, 1:-1], p[:, 2:]])
        # even j ties the partners of one pair, odd j below L - 2 one pair to the next
        pair = [(f"[{j}] product", "product == 1", product[:, j]) if j % 2 == 0 else
                (f"[{j}] triple product", "conjugate of product", triple[:, j - 1])
                for j in range(min(L, K)) if j % 2 == 0 or j < L - 2] + pair
        if L <= K:
            hyp.append((f" argsum[{L-2},{L-1}]", "0 mod 2pi", zeros,
                        arg_sum_is_zero([crs[:, L - 2], crs[:, L - 1]], (1, 2), tol).tolist()))
            pair.append((f"[{L - 1}] boundary", "conjugate of product",
                         conj_product_defect(p[:, L - 1], [b[:, L - 2], b[:, L - 1]])))
    return hyp, [(s, q, d.astype(complex).tolist(), (d <= tol).tolist()) for s, q, d in pair]


def _emit(prefix, columns, r):
    """The conditions of line r, one per column of ``_columns``' result."""
    return [Condition(prefix + suffix, values[r], requirement, passed[r])
            for suffix, requirement, values, passed in columns]


def _real_triples(values, name, quotients, cfg):
    return [Condition(f"{name}{q}", v, "real", abs(v.imag) <= cfg.cr_tol * (1 + abs(v.real)))
            for v, q in zip(values.tolist(), quotients)]


def _conj_triples(t1, t2, name, quotients, cfg):
    """t1 against the conjugate of t2, quotient by quotient."""
    defects = (modulus(t1 - t2.conj()) / np.maximum(np.maximum(modulus(t1), modulus(t2)), 1e-300)).tolist()
    return [Condition(f"{name}{q}", complex(d), "conjugate pair", d <= cfg.cr_tol)
            for d, q in zip(defects, quotients)]


def _flag_conditions(infos, cfg):
    """Flag coordinates against the eigenbasis flag pairs of the first two
    strictly hyperbolic generators; every other generator's mirrored flag
    holds at most one hyperbolic direction.  Every flag's genericity is
    checked before one cross-ratio evaluation covers every line; the
    triple ratios follow (``flag_set``)."""
    g, h, others = flag_base(infos, "flag method")
    for info in others:
        if info.kind != KIND_HYPERBOLIC and len(info.hyp_indices()) > 1:
            raise GenericityViolation(
                f"generator {info.index}: flag coordinates handle at most one hyperbolic direction")
    crs, triples = flag_set(g, h, [(info, info.rows if info.kind == KIND_HYPERBOLIC
                                     else _mirrored_rows(info)) for info in others], cfg)
    quotients = _triple_minors(len(g.rows))[0]
    hcols, pcols = _columns(crs, 0, cfg.cr_tol)
    conditions = (_emit("cr(A,B,C,D)", hcols, 0)
                  + _real_triples(triples[0], "r3(A,B,C)", quotients, cfg)
                  + _real_triples(triples[1], "r3(A,C,D)", quotients, cfg))
    for m, info in enumerate(others):
        n, r = info.index, 2 * m + 1
        beta, beta_rev = triples[r + 1], triples[r + 2]
        if info.kind == KIND_HYPERBOLIC:
            conditions += (_emit(f"cr(A,b{n},C,D)", hcols, r)
                           + _emit(f"cr(A,b'{n},C,D)", hcols, r + 1)
                           + _real_triples(beta, f"r3(A,b{n},C)", quotients, cfg)
                           + _real_triples(beta_rev, f"r3(A,b'{n},C)", quotients, cfg))
        else:
            conditions += (_emit(f"cr(A,b{n},C,D) vs b'", pcols, r)
                           + _conj_triples(beta, beta_rev, f"r3(A,b{n},C) vs b'", quotients, cfg))
    return conditions, []


def _line_sets(checks, frame, d, message, rank_tol):
    """Cross-ratio sets of the eigendirections named by ``checks``,
    (generator, eigendirection indices) in condition order, one row per
    direction in that order, against a flag pair (A, C = A reversed) and a
    reference with A-coordinates ``d``; a direction's A-coordinates are it
    times ``frame``.  One closed-form genericity check, at the cut
    ``rank_tol``, covers every line first; the first failing line raises
    ``message`` formatted with its generator ``n`` and index ``i``."""
    owners = [(info, i) for info, idx in checks for i in idx]
    x = np.array([info.rows[i] for info, i in owners]).reshape(-1, len(d)) @ frame
    bad = first_nongeneric_coords(x, d, rank_tol)
    if bad is not None:
        info, i = owners[bad]
        raise GenericityViolation(message.format(n=info.index, i=i))
    return frame_cross_ratio_sets(x, d)


def _first_rows(checks):
    """The row of each check's first direction in ``_line_sets``' result."""
    return list(itertools.accumulate((len(idx) for _, idx in checks), initial=0))[:-1]


@functools.cache
def _synthetic_target() -> np.ndarray:
    """Basis of the frame {[i,1,0], [-i,1,0], [0,0,1], [1,1,1]} the synthetic
    base maps to.  Every 3 of its points span a determinant of modulus at
    least sqrt(2), above any deg_tol that lets a matrix through ``prepare``
    (s_min <= deg_tol * s_max refuses every matrix once deg_tol >= 1), so
    one build serves every tolerance."""
    # the canonical representatives of the four points, as ``ProjPoint`` scales them
    basis = frame_basis(np.array([[1, -1j, 0], [1, 1j, 0], [0, 0, 1], [1, 1, 1]]).T)
    basis.flags.writeable = False
    return basis


def _synthetic_conditions(infos, cfg):
    """Synthetic hyperbolic base at k = 3 built from elliptic eigendata.

    One generator's elliptic pair and hyperbolic direction plus the first
    hyperbolic direction of the first other generator form a projective
    frame; mapping it to {[i,1,0], [-i,1,0], [0,0,1], [1,1,1]} pins the
    candidate real form, and the remaining checks read as if the base
    consisted of two hyperbolic transformations with standard flags:
    A is the unit rows, so a direction moved by gamma0 is its own
    A-coordinates.
    With fewer than two strictly hyperbolic generators at k = 3 some
    generator is mixed, and every other generator has a hyperbolic
    direction to offer.  A pair generator's mirrored flag needs its
    eigendirections independent, read from its ``frame_rcond`` as every
    flag route reads it.
    """
    e1 = next(info for info in infos if info.kind == KIND_MIXED)
    pi, pj = e1.labeling().pairing[0]
    provider = next(info for info in infos if info is not e1)
    q_idx = provider.hyp_indices()[0]
    points = np.vstack([e1.rows[[pi, pj, e1.hyp_indices()[0]]], provider.rows[q_idx]])
    try:
        src = frame_basis(points.T, cfg)
    except DegenerateFrame as exc:
        raise GenericityViolation(
            "no second-generator direction completes a projective frame") from exc
    gamma0 = canonical_matrix(_synthetic_target() @ np.linalg.inv(src))

    # (generator, eigendirection indices): hyperbolic directions, or the pair
    checks = []
    for info in infos:
        if info.kind == KIND_HYPERBOLIC:
            checks += [(info, (i,)) for i in range(len(info.rows))
                       if info is not provider or i != q_idx]
        elif info is not e1:
            checks.append((info, info.labeling().pairing[0]))
    # the identity flag's coordinates of a direction moved by gamma0
    crs = _line_sets(checks, gamma0.T, np.ones(3, dtype=complex),
                     "generator {n}: eigendirection not generic with the synthetic base",
                     cfg.rank_tol)
    hcols, pcols = _columns(crs, 0, cfg.cr_tol)

    pairs = [(info, idx) for info, idx in checks if len(idx) == 2]
    if pairs:
        # the mirrored flag (p, mid, q) of each pair moved by gamma0, rows scaled to
        # largest entry 1, then its reverse; A is the unit rows, so these are frame rows
        betas = np.array([info.rows[[idx[0], info.hyp_indices()[0], idx[1]]]
                          for info, idx in pairs]) @ gamma0.T
        betas /= np.abs(betas).max(axis=2, keepdims=True)
        flags = np.repeat(betas, 2, axis=0)
        flags[1::2] = betas[:, ::-1]
        triples, errors = frame_triple_ratio_sets(
            np.eye(3), flags, frame_minors(flags, window_table((2, 2, 2, 0), 3)), cfg)
    quotients = _triple_minors(3)[0]
    conditions, m = [], 0
    for (info, idx), r in zip(checks, _first_rows(checks)):
        if len(idx) == 1:
            conditions += _emit(f"cr(A,h{info.index}.{idx[0]},C,D)", hcols, r)
            continue
        conditions += _emit(f"cr(A,b{info.index},C,D) vs b'", pcols, r)
        error = (GenericityViolation("flag spanning vectors are linearly dependent")
                 if not info.frame_rcond > cfg.rank_tol
                 else next((e for e in errors[2 * m:2 * m + 2] if e is not None), None))
        if error is not None:
            raise GenericityViolation(
                f"generator {info.index}: triple ratios degenerate for the synthetic base: {error}")
        conditions += _conj_triples(triples[2 * m], triples[2 * m + 1],
                                    f"r3(A,b{info.index},C) vs b'", quotients, cfg)
        m += 1
    return conditions, ["synthetic hyperbolic base from elliptic eigendata",
                        f"frame generator {e1.index}, fourth point from {provider.index}"]


def _dim3_conditions(infos, cfg):
    if sum(info.kind == KIND_HYPERBOLIC for info in infos) >= 2:
        return _flag_conditions(infos, cfg)
    return _synthetic_conditions(infos, cfg)


def decide_pgl3(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None, direct=None):
    """Flag cross-ratio and triple-ratio decision at k = 3."""
    return _run_route(ms, cfg, infos, METHOD_DIM3, (3, 3), _dim3_conditions, direct)


def decide_pglk_fg(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None, direct=None):
    """Flag cross-ratio and triple-ratio decision at general k >= 3."""
    return _run_route(ms, cfg, infos, METHOD_FG, (3, MAX_DIM), _flag_conditions, direct)


# ---------------------------------------------------------------------------
# cross-ratio-only method

def _cross_conditions(infos, cfg):
    """Conditions against one base flag pair and one reference direction.

    The base is the first generator, hyperbolic before elliptic before
    mixed, for which another generator has a hyperbolic direction; the
    reference is the first such generator's first hyperbolic direction.
    The base flag lists pair partners consecutively ahead of hyperbolic
    directions.
    """
    base, provider = next(((b, p) for kind in (KIND_HYPERBOLIC, KIND_ELLIPTIC, KIND_MIXED)
                           for b in infos if b.kind == kind
                           for p in infos if p is not b and p.hyp_indices()), (None, None))
    if base is None:
        raise GenericityViolation(
            "no second generator has a hyperbolic direction to serve as reference")
    d_idx = provider.hyp_indices()[0]
    _require_independent(base, cfg)
    frame, L = base.frame[:, base.labeling().order], 2 * len(base.labeling().pairing)
    # (generator, eigendirection indices): pairs, then hyperbolic directions
    checks = []
    for info in infos:
        if info is not base:
            checks += [(info, pair) for pair in info.labeling().pairing]
            checks += [(info, (i,)) for i in info.hyp_indices()
                       if info is not provider or i != d_idx]
    # a minor in the frame bounds the input-space s_min / s_max only up to
    # the frame's conditioning, so the line cut is scaled by it
    crs = _line_sets(checks, frame, provider.rows[d_idx] @ frame,
                     "generator {n}: eigendirection {i} not generic with the base",
                     cfg.rank_tol / base.frame_rcond)
    columns = dict(zip((1, 2), _columns(crs, L, cfg.cr_tol)))
    conditions = []
    for (info, idx), r in zip(checks, _first_rows(checks)):
        prefix = f"cr(A,{'h' if len(idx) == 1 else 'e'}{info.index}.{'/'.join(map(str, idx))},C,d)"
        conditions += _emit(prefix, columns[len(idx)], r)
    return conditions, [f"base generator {base.index}, reference direction from {provider.index}"]


def decide_pglk_cross_only(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None, direct=None):
    """Per-eigendirection cross-ratio conditions against a base flag pair.

    The base pair comes from one generator's eigenbasis (pairs listed
    consecutively for elliptic/mixed bases) and the reference direction
    is a hyperbolic eigendirection of another generator.  When these
    conditions fail and the direct method finds a form, its Yes is the
    answer, whatever the base's type: at an ill-conditioned eigenbasis
    rounding can carry a defect just past ``cr_tol``.
    """
    return _run_route(ms, cfg, infos, METHOD_CROSS, (MIN_DIM, MAX_DIM), _cross_conditions, direct)


# ---------------------------------------------------------------------------
# direct method

_MAX_LABELINGS = 128


def decide_direct(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Solve for a common conjugation from the eigendata directly.

    No genericity precondition; always Yes or No unless certification
    fails.  Non-generic generators contribute one labeling per
    admissible line, and the combinations are tried in turn.  The first
    that admits a conjugation decides: mapping every generator's
    eigendirections to their partners, it commutes with each generator,
    and the certificate (gamma^{-1} M gamma real within cert_tol) checks
    that for the whole collection at once.  The direction rows of every
    generator sit in one array, the best-conditioned eigenbasis first;
    each labeling takes its rows and partner indices from it by index,
    and the certificate reads the pass's in-band matrices.  Only the
    GenInfo arrays are read: no ProjPoint is built.
    """
    infos = prepare(ms, cfg) if infos is None else infos
    options = [info.sclass.labelings for info in infos]
    total = math.prod(len(opt) for opt in options)
    if total > _MAX_LABELINGS:
        raise NumericalDegeneracy(f"{total} labeling combinations exceed the search cap")

    # the best-conditioned eigenbasis first: the solve takes it as its base
    anchor = max(range(len(infos)), key=lambda j: infos[j].frame_rcond)
    order = [anchor] + [j for j in range(len(infos)) if j != anchor]
    k = len(infos[0].eigenvalues)
    rows = np.concatenate([infos[j].rows for j in order])
    for combo in itertools.product(*options):
        # block n: generator order[n]'s rows in its labeling's order; a row's
        # partner is its pair's other member, or itself when fixed
        labs = [combo[j] for j in order]
        idx = [n * k + i for n, lab in enumerate(labs) for i in lab.order]
        partners = np.array([n * k + (p ^ 1 if p < 2 * len(lab.pairing) else p)
                             for n, lab in enumerate(labs) for p in range(k)])
        try:
            conj, mult = conjugation_witness(rows[idx], partners, cfg)
        except NoConjugation:
            continue
        gamma = canonical_matrix(realifier(conj, cfg))
        residual = verify_certificate([info.matrix for info in infos], gamma, cfg)
        if residual >= cfg.cert_tol:
            raise NumericalDegeneracy(f"certificate residual {residual:.3g} above cert_tol")
        # what the certificate proves, generator by generator
        conditions = [Condition(f"preserves(M{info.index})", 0j, "commutes with conjugation", True)
                      for info in infos]
        return Verdict(YES, mult, METHOD_DIRECT), Certificate(gamma, residual, conditions)
    return (Verdict(NO, Multiplicity.ZERO, METHOD_DIRECT),
            Certificate(None, None, [], ["no labeling admits a common real form"]))


# ---------------------------------------------------------------------------
# dispatch

FORCED_METHODS = ("auto", "dim2", "dim3", "fg", "cross", "direct")


def decide(ms, cfg: Tolerances = DEFAULT_TOLERANCES, method: str = "auto"):
    """Decide simultaneous conjugacy into PGL(k,R) with a certificate.

    ``method`` forces one route ("dim2", "dim3", "fg", "cross",
    "direct"); "auto" solves by the direct method once, then reads that
    solve against the coordinate routes of the right dimension, the
    first that applies giving the answer; the reason each skipped route
    raised is recorded in the certificate diagnostics.
    """
    if method not in FORCED_METHODS:
        raise ValueError(f"unknown method {method!r}")
    # names read per call: a module-level map would keep the originals, not a wrapper
    routes = {"dim2": decide_pgl2, "dim3": decide_pgl3, "fg": decide_pglk_fg,
              "cross": decide_pglk_cross_only, "direct": decide_direct}
    infos = prepare(ms, cfg)
    if method != "auto":
        return routes[method](None, cfg, infos=infos)

    direct = decide_direct(None, cfg, infos=infos)
    k = len(infos[0].eigenvalues)
    notes = []
    for name in ["dim2"] if k == 2 else ["dim3" if k == 3 else "fg", "cross"]:
        try:
            verdict, cert = routes[name](None, cfg, infos=infos, direct=direct)
            break
        except RealformError as exc:
            notes.append(f"{name}: {exc}")
    else:
        verdict, cert = direct
    cert.diagnostics = notes + cert.diagnostics
    return verdict, cert
