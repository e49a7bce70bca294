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

The four coordinate routes share one runner (``_run_route``): each supplies
the k it handles, an optional structural precheck on kinds and labels,
and a function building its condition list.  The runner owns the rest:
the genericity gate, the single-generator shortcut, certification, the
fall back to ``direct`` when every condition passes but certification
fails, and the ``direct`` confirmation of a ``cross`` No.

Every Yes, from every route, is certified the same way: an explicit
realifier gamma is produced and the maximum imaginary residual of
gamma^{-1} M gamma over the collection must be below ``cert_tol``.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .coords import (
    arg_sum_is_zero,
    conj_pair_defect,
    conj_product_defect,
    cross_ratio,
    cross_ratio_sets,
    in_unit_circle,
    is_real_extended,
    is_real_positive,
    product_in_unit_circle,
    triple_ratio_set,
    unit_product_defect,
)
from .errors import (
    DegenerateFrame,
    DegenerateTriple,
    GenericityViolation,
    IncompatibleEigenvalues,
    NoConjugation,
    NumericalDegeneracy,
    RealformError,
    RepeatedEigenvalues,
    SharedEigendirections,
    SpectralPreconditionError,
)
from .flags import (
    first_nongeneric_line,
    flag_pair_from_eigensystem,
    generic_position,
    generic_with_point,
    make_flag,
    mirrored_pair_flag,
)
# not used here, but kept importable: perfbench/spans.py wraps them by module global
from .coords import cross_ratio_set  # noqa: F401
from .flags import point_flag  # noqa: F401
from .projlin import (
    MAX_DIM,
    MIN_DIM,
    ProjPoint,
    canonical_matrix,
    check_matrix,
    eig,
    frame_from_points,
    homography,
    proj_dist,
)
from .rform import (
    Multiplicity,
    conjugation_witness,
    elliptic_pair,
    hyperbolic_datum,
    preserves,
    realifier,
)
from .spectrum import (
    HYPERBOLIC,
    KIND_ELLIPTIC,
    KIND_HYPERBOLIC,
    KIND_INCOMPATIBLE,
    KIND_MIXED,
    type_transformation,
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
    """One generator with its eigendata and spectral classification."""

    index: int
    matrix: np.ndarray
    es: object
    sclass: object

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

    def direction(self, i) -> ProjPoint:
        return self.es.directions[i]


def prepare(ms, cfg: Tolerances = DEFAULT_TOLERANCES):
    """Eigendecompose and classify every generator; fail fast on spectra."""
    infos = []
    for idx, m in enumerate(ms):
        try:
            es = eig(m, cfg)
        except RepeatedEigenvalues as exc:
            raise RepeatedEigenvalues(f"matrix {idx}: {exc}") from exc
        sc = type_transformation(es, cfg)
        if sc.kind == KIND_INCOMPATIBLE:
            raise IncompatibleEigenvalues(
                f"matrix {idx}: eigenvalues admit no organizing real line"
            )
        infos.append(GenInfo(index=idx, matrix=es.matrix, es=es, sclass=sc))
    if not infos:
        raise ValueError("empty collection")
    k = infos[0].es.dim
    if any(info.es.dim != k for info in infos):
        raise ValueError("matrices have mismatched dimensions")
    return infos


def _eigendata(info: GenInfo, labeling=None):
    lab = labeling or info.labeling()
    data = []
    paired = {i for p in lab.pairing for i in p}
    for i, j in lab.pairing:
        data.extend(elliptic_pair(info.direction(i), info.direction(j)))
    for i, l in enumerate(lab.labels):
        if l == HYPERBOLIC and i not in paired:
            data.append(hyperbolic_datum(info.direction(i)))
    return data


def verify_certificate(ms, gamma, cfg: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Max imaginary residual of gamma^{-1} M gamma after optimal rephasing.

    The phase minimizing the squared imaginary part has the closed form
    exp(-i arg(sum of squared entries) / 2); the residual is relative to
    the largest entry.  Independent of how gamma was produced.
    """
    gamma = check_matrix(gamma, cfg)
    inv = np.linalg.inv(gamma)
    worst = 0.0
    for m in ms:
        n = inv @ np.asarray(m, dtype=complex) @ gamma
        w = np.sum(n * n)
        s = np.exp(-0.5j * np.angle(w)) if abs(w) > 0 else 1.0
        r = s * n
        worst = max(worst, float(np.max(np.abs(r.imag)) / np.max(np.abs(r))))
    return worst


def _certify(infos, cfg, method, conditions, diagnostics, witness=None):
    """Yes with a realifier built from ``witness`` (by default the
    conjugation of the first labelings) whose residual is below cert_tol."""
    if witness is None:
        witness = conjugation_witness([d for info in infos for d in _eigendata(info)], cfg)
    conj, unique = witness
    gamma = canonical_matrix(realifier(conj, cfg))
    residual = verify_certificate([info.matrix for info in infos], gamma, cfg)
    if residual >= cfg.cert_tol:
        raise NumericalDegeneracy(f"certificate residual {residual:.3g} above cert_tol")
    cert = Certificate(gamma=gamma, residual=residual, conditions=conditions,
                       diagnostics=list(diagnostics))
    mult = Multiplicity.ONE if unique else Multiplicity.INFINITE
    return Verdict(answer=YES, multiplicity=mult, method=method), cert


def _no_verdict(method, conditions, diagnostics):
    cert = Certificate(gamma=None, residual=None, conditions=conditions,
                       diagnostics=list(diagnostics))
    return Verdict(answer=NO, multiplicity=Multiplicity.ZERO, method=method), cert


def _require_generic(infos):
    bad = [info.index for info in infos if not info.generic]
    if bad:
        raise SpectralPreconditionError(
            f"generators {bad} have non-generic eigenvalues; coordinate methods need a unique labeling"
        )


def _direct_fallback(cfg, infos):
    """``decide_direct`` on behalf of a coordinate route.  A failure is
    marked so that ``auto`` stops there: every later route would end in
    the same solve and the same failure."""
    try:
        return decide_direct(None, cfg, infos=infos)
    except RealformError as exc:
        exc.direct_failed = True
        raise


def _run_route(ms, cfg, infos, method, ks, build, precheck=None):
    """Run one coordinate route and certify or confirm its answer.

    ``ks`` is the (lowest, highest) k the route handles.  ``precheck``
    rejects a collection from its kinds and labels alone, before any
    flag is built; ``build`` returns the route's (conditions,
    diagnostics) and raises a RealformError when the geometry is not
    generic.
    """
    infos = prepare(ms, cfg) if infos is None else infos
    lo, hi = ks
    if not lo <= infos[0].es.dim <= hi:
        raise SpectralPreconditionError(
            f"this method needs {lo}x{lo} input" if lo == hi else f"this method needs k >= {lo}")
    _require_generic(infos)
    if len(infos) == 1:
        conditions, diagnostics = [], ["single compatible generator"]
    else:
        if precheck is not None:
            precheck(infos)
        conditions, diagnostics = build(infos, cfg)
    if all(c.passed for c in conditions):
        try:
            return _certify(infos, cfg, method, conditions, diagnostics)
        except (NoConjugation, NumericalDegeneracy) as exc:
            verdict, cert = _direct_fallback(cfg, infos)
            cert.diagnostics.append(f"coordinate conditions passed but certification failed: {exc}")
            return verdict, cert
    if method == METHOD_CROSS:
        # the cross-only conditions are sufficient, not always necessary
        verdict, cert = _direct_fallback(cfg, infos)
        if verdict.answer == YES:
            cert.diagnostics.append("cross-only conditions failed but the direct method found a form")
            return verdict, cert
        diagnostics.append("No confirmed by the direct method")
    return _no_verdict(method, conditions, diagnostics)


# ---------------------------------------------------------------------------
# dimension 2

def _cp1_dirs(info: GenInfo):
    return info.es.directions[0], info.es.directions[1]


def _pick_reference(base_dirs, other: GenInfo, cfg):
    """First eigendirection of ``other`` distinct from all base directions."""
    for d in other.es.directions:
        if all(proj_dist(d, b) > cfg.sep_tol for b in base_dirs):
            return d
    return None


def _first_valid_pair(cands, cfg):
    for a, b in itertools.combinations(cands, 2):
        if _pick_reference(_cp1_dirs(a), b, cfg) is not None:
            return a, b
    return None


def _dim2_conditions(infos, cfg):
    """Cross ratios of the fixed points against a hyperbolic base pair,
    else an elliptic base pair, else the lone hyperbolic-elliptic pair."""
    hyp = [i for i in infos if i.kind == KIND_HYPERBOLIC]
    ell = [i for i in infos if i.kind == KIND_ELLIPTIC]
    tol = cfg.cr_tol
    conditions = []

    def add(name, value, requirement, passed):
        conditions.append(Condition(name=name, value=value, requirement=requirement, passed=passed))

    hyp_base = _first_valid_pair(hyp, cfg)
    if hyp_base is not None:
        h1, h2 = hyp_base
        h1m, h1p = _cp1_dirs(h1)
        ref = _pick_reference((h1m, h1p), h2, cfg)
        cr = cross_ratio(h1m, h2.direction(0), h1p, h2.direction(1))
        add(f"[H{h1.index},H{h2.index}]", cr.value, "extended real", is_real_extended(cr, tol))
        for other in infos:
            if other is h1 or other is h2:
                continue
            crm, crp = (cross_ratio(h1m, dpt, h1p, ref) for dpt in _cp1_dirs(other))
            if other.kind == KIND_HYPERBOLIC:
                for tag, cr in (("-", crm), ("+", crp)):
                    add(f"[h{h1.index}-,h{other.index}{tag},h{h1.index}+,ref]", cr.value,
                        "extended real", is_real_extended(cr, tol))
            else:
                defect = conj_pair_defect(crm, crp)
                add(f"[h{h1.index}-,e{other.index}±,h{h1.index}+,ref] pair", complex(defect),
                    "conjugate pair", defect <= tol)
        return conditions, []

    ell_base = _first_valid_pair(ell, cfg)
    if ell_base is not None:
        e1, e2 = ell_base
        e1m, e1p = _cp1_dirs(e1)
        e2m, e2p = _cp1_dirs(e2)
        cr = cross_ratio(e1m, e2m, e1p, e2p)
        add(f"[E{e1.index},E{e2.index}]", cr.value, "positive real", is_real_positive(cr, tol))
        for other in infos:
            if other is e1 or other is e2:
                continue
            om, op = _cp1_dirs(other)
            if other.kind == KIND_ELLIPTIC:
                for base in (e1, e2):
                    bm, bp = _cp1_dirs(base)
                    cr = cross_ratio(bm, om, bp, op)
                    add(f"[E{base.index},E{other.index}]", cr.value, "positive real",
                        is_real_positive(cr, tol))
            else:
                for tag, dpt in (("-", om), ("+", op)):
                    c1 = cross_ratio(e1m, dpt, e1p, e2m)
                    c2 = cross_ratio(e1m, dpt, e1p, e2p)
                    val = complex(np.inf) if c1.infinite or c2.infinite else c1.value * c2.value
                    add(f"[e{e1.index}-,h{other.index}{tag},e{e1.index}+,e{e2.index}∓] product",
                        val, "unit circle", product_in_unit_circle(c1, c2, tol))
        return conditions, []

    if len(hyp) == 1 and len(ell) == 1:
        (h,), (e,) = hyp, ell
        hm, hp = _cp1_dirs(h)
        em, ep = _cp1_dirs(e)
        cr = cross_ratio(hm, em, hp, ep)
        add(f"[h{h.index}-,e{e.index}-,h{h.index}+,e{e.index}+]", cr.value,
            "unit circle", in_unit_circle(cr, tol))
        return conditions, []

    raise SharedEigendirections("no base pair with distinct eigendirection sets")


def decide_pgl2(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Cross-ratio decision on CP^1 fixed-point configurations."""
    return _run_route(ms, cfg, infos, METHOD_DIM2, (2, 2), _dim2_conditions)


def condition_functions_pgl2(ms, cfg: Tolerances = DEFAULT_TOLERANCES):
    """The 2n-3 condition-function values for n generators on CP^1.

    Requires the first two generators hyperbolic with distinct
    eigendirection pairs; all values vanish exactly when the collection
    is simultaneously conjugate into PGL(2,R).
    """
    infos = prepare(ms, cfg)
    if infos[0].es.dim != 2:
        raise SpectralPreconditionError("condition functions are defined for 2x2 input")
    _require_generic(infos)
    if len(infos) < 2:
        raise SpectralPreconditionError("need at least two generators")
    m1, m2 = infos[0], infos[1]
    if m1.kind != KIND_HYPERBOLIC or m2.kind != KIND_HYPERBOLIC:
        raise SpectralPreconditionError("first two generators must be hyperbolic")
    if _pick_reference(_cp1_dirs(m1), m2, cfg) is None:
        raise SharedEigendirections("first two generators share their eigendirection pair")

    m1m, m1p = _cp1_dirs(m1)
    m2m, m2p = _cp1_dirs(m2)

    def crv(b):
        return cross_ratio(m1m, b, m1p, m2p).value

    z = crv(m2m)
    values = [z - np.conj(z)]
    for info in infos[2:]:
        dm, dp = _cp1_dirs(info)
        zm, zp = crv(dm), crv(dp)
        if info.kind == KIND_HYPERBOLIC:
            values.append(zm - np.conj(zm))
            values.append(zp - np.conj(zp))
        else:
            values.append((zm - np.conj(zm)) - (np.conj(zp) - zp))
            values.append((zm + np.conj(zm)) - (np.conj(zp) + zp))
    return values


# ---------------------------------------------------------------------------
# flag coordinate methods (k >= 3)

_ORDER_TRIES = 12


def _base_orderings(k):
    yield list(range(k)), list(range(k))
    rng = np.random.default_rng(20240501)
    for _ in range(_ORDER_TRIES):
        yield list(rng.permutation(k)), list(rng.permutation(k))


def _fg_precheck(infos):
    """Two strictly hyperbolic generators for the base pair, and at most
    one hyperbolic direction in every other generator's mirrored flag."""
    if sum(info.kind == KIND_HYPERBOLIC for info in infos) < 2:
        raise GenericityViolation("flag method needs two strictly hyperbolic generators")
    for info in infos:
        if info.kind != KIND_HYPERBOLIC and len(info.hyp_indices()) > 1:
            raise GenericityViolation(
                f"generator {info.index}: flag coordinates handle at most one hyperbolic direction"
            )


def _mirrored_flags(info: GenInfo, cfg):
    """Flag pair for a generator with at most one hyperbolic direction.

    Pairs sit symmetrically about the middle so the reversed flag lists
    the partners step by step.
    """
    pairs = [(info.direction(i), info.direction(j)) for i, j in info.labeling().pairing]
    beta = mirrored_pair_flag(pairs, [info.direction(i) for i in info.hyp_indices()], cfg)
    return beta, beta.reversed()


def _real_crs(a, c, d1, lines, names, cfg):
    """Each line's cross ratios must be real; one condition list per name."""
    return [Condition(f"{name}[{i}]", cr.value, "real",
                      is_real_extended(cr, cfg.cr_tol) and not cr.infinite)
            for crs, name in zip(cross_ratio_sets(a, lines, c, d1, cfg, check_genericity=False),
                                 names)
            for i, cr in enumerate(crs)]


def _real_triples(a, f, c, name, cfg):
    return [Condition(f"{name}{tr.provenance}", tr.value, "real",
                      abs(tr.value.imag) <= cfg.cr_tol * (1 + abs(tr.value.real)))
            for tr in triple_ratio_set(a, f, c, cfg)]


def _conj_crs(a, c, d1, line_b, line_p, name, cfg):
    crs_b, crs_p = cross_ratio_sets(a, [line_b, line_p], c, d1, cfg, check_genericity=False)
    defects = [conj_pair_defect(c1, c2) for c1, c2 in zip(crs_b, crs_p)]
    return [Condition(f"{name}[{i}]", complex(d), "conjugate pair", d <= cfg.cr_tol)
            for i, d in enumerate(defects)]


def _conj_triples(a, beta, beta_rev, c, name, cfg):
    out = []
    for t1, t2 in zip(triple_ratio_set(a, beta, c, cfg), triple_ratio_set(a, beta_rev, c, cfg)):
        defect = abs(t1.value - np.conj(t2.value)) / max(abs(t1.value), abs(t2.value), 1e-300)
        out.append(Condition(f"{name}{t1.provenance}", complex(defect), "conjugate pair",
                             defect <= cfg.cr_tol))
    return out


def _flag_conditions(infos, cfg):
    """Flag coordinates against the base pair of the first two strictly
    hyperbolic generators, under the first eigenbasis ordering that puts
    the base flags in generic position."""
    g, h = [info for info in infos if info.kind == KIND_HYPERBOLIC][:2]
    for og, oh in _base_orderings(g.es.dim):
        fg_ = flag_pair_from_eigensystem(g.es, og, cfg)
        fh = flag_pair_from_eigensystem(h.es, oh, cfg)
        if generic_position([fg_.flag, fh.flag, fg_.reverse, fh.reverse], cfg):
            break
    else:
        raise GenericityViolation("no eigenbasis ordering puts the base flags in generic position")
    a, c = fg_.flag, fg_.reverse
    b, d = fh.flag, fh.reverse
    d1 = ProjPoint(d.vectors[0])

    conditions = (_real_crs(a, c, d1, [ProjPoint(b.vectors[0])], ["cr(A,B,C,D)"], cfg)
                  + _real_triples(a, b, c, "r3(A,B,C)", cfg)
                  + _real_triples(a, c, d, "r3(A,C,D)", cfg))
    for info in infos:
        if info is g or info is h:
            continue
        if info.kind == KIND_HYPERBOLIC:
            fp = flag_pair_from_eigensystem(info.es, cfg=cfg)
            beta, beta_rev = fp.flag, fp.reverse
        else:
            beta, beta_rev = _mirrored_flags(info, cfg)
        for f in (beta, beta_rev):
            if not generic_position([a, f, c, d], cfg):
                raise GenericityViolation(f"generator {info.index}: flags not in generic position")
        b1, b1p = ProjPoint(beta.vectors[0]), ProjPoint(beta_rev.vectors[0])
        n = info.index
        if info.kind == KIND_HYPERBOLIC:
            conditions += (_real_crs(a, c, d1, [b1, b1p], [f"cr(A,b{n},C,D)", f"cr(A,b'{n},C,D)"],
                                     cfg)
                           + _real_triples(a, beta, c, f"r3(A,b{n},C)", cfg)
                           + _real_triples(a, beta_rev, c, f"r3(A,b'{n},C)", cfg))
        else:
            conditions += (_conj_crs(a, c, d1, b1, b1p, f"cr(A,b{n},C,D) vs b'", cfg)
                           + _conj_triples(a, beta, beta_rev, c, f"r3(A,b{n},C) vs b'", cfg))
    return conditions, []


def _synthetic_conditions(infos, cfg):
    """Synthetic hyperbolic base at k = 3 built from elliptic eigendata.

    One generator's elliptic pair and hyperbolic direction plus a
    direction of a second generator form a projective frame; mapping it
    to {[i,1,0], [-i,1,0], [0,0,1], [1,1,1]} pins the candidate real
    form, and the remaining checks read as if the base consisted of two
    hyperbolic transformations with standard flags.  With fewer than two
    strictly hyperbolic generators at k = 3 some generator is mixed, and
    every other generator has a hyperbolic direction to offer.
    """
    e1 = next(info for info in infos if info.kind == KIND_MIXED)
    pi, pj = e1.labeling().pairing[0]
    frame = [e1.direction(pi), e1.direction(pj), e1.direction(e1.hyp_indices()[0])]
    dst = frame_from_points(
        [ProjPoint([1j, 1, 0]), ProjPoint([-1j, 1, 0]), ProjPoint([0, 0, 1]),
         ProjPoint([1, 1, 1])], cfg)
    fourth = [(info, i) for info in infos if info is not e1 for i in info.hyp_indices()]
    for provider, q_idx in fourth:
        try:
            src = frame_from_points(frame + [provider.direction(q_idx)], cfg)
        except DegenerateFrame:
            continue
        gamma0 = homography(src, dst)
        break
    else:
        raise GenericityViolation("no second-generator direction completes a projective frame")

    a = make_flag(np.eye(3, dtype=complex), cfg)
    c = a.reversed()
    d1 = ProjPoint([1.0, 1.0, 1.0])

    def moved(info, i) -> ProjPoint:
        v = ProjPoint(gamma0 @ info.direction(i).coords, cfg)
        if not generic_with_point(a, v, c, d1, cfg):
            raise GenericityViolation(
                f"generator {info.index}: eigendirection not generic with the synthetic base")
        return v

    conditions = []
    for info in infos:
        if info is e1:
            continue
        if info.kind == KIND_HYPERBOLIC:
            for i in range(info.es.dim):
                if info is not provider or i != q_idx:
                    conditions += _real_crs(a, c, d1, [moved(info, i)],
                                            [f"cr(A,h{info.index}.{i},C,D)"], cfg)
            continue
        qi, qj = info.labeling().pairing[0]
        pair_moved = (moved(info, qi), moved(info, qj))
        mid = ProjPoint(gamma0 @ info.direction(info.hyp_indices()[0]).coords, cfg)
        conditions += _conj_crs(a, c, d1, *pair_moved, f"cr(A,b{info.index},C,D) vs b'", cfg)
        try:
            beta = mirrored_pair_flag([pair_moved], [mid], cfg)
            conditions += _conj_triples(a, beta, beta.reversed(), c,
                                        f"r3(A,b{info.index},C) vs b'", cfg)
        except (GenericityViolation, DegenerateTriple) as exc:
            raise GenericityViolation(
                f"generator {info.index}: triple ratios degenerate for the synthetic base: {exc}")
    return conditions, ["synthetic hyperbolic base from elliptic eigendata",
                        f"frame generator {e1.index}, fourth point from {provider.index}"]


def _dim3_conditions(infos, cfg):
    if sum(info.kind == KIND_HYPERBOLIC for info in infos) >= 2:
        return _flag_conditions(infos, cfg)
    return _synthetic_conditions(infos, cfg)


def decide_pgl3(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Flag cross-ratio and triple-ratio decision at k = 3."""
    return _run_route(ms, cfg, infos, METHOD_DIM3, (3, 3), _dim3_conditions)


def decide_pglk_fg(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Flag cross-ratio and triple-ratio decision at general k >= 3."""
    return _run_route(ms, cfg, infos, METHOD_FG, (3, MAX_DIM), _flag_conditions, _fg_precheck)


# ---------------------------------------------------------------------------
# cross-ratio-only method

def _cross_hyp_conditions(crs, L, prefix, cfg):
    """Conditions on the cross ratios of one hyperbolic direction.

    The base flag lists L pair-derived directions first, then
    hyperbolic ones; L = 0 is the all-hyperbolic base.  Within the pair
    block the ratios live on the unit circle and their arguments
    telescope to full turns; past it they are real.
    """
    tol = cfg.cr_tol
    k = len(crs) + 1
    out = []
    for j, cr in enumerate(crs):
        if j < L and j % 2 == 0:
            out.append(Condition(f"{prefix}[{j}]", cr.value, "unit circle", in_unit_circle(cr, tol)))
        elif j >= L:
            out.append(Condition(f"{prefix}[{j}]", cr.value, "real",
                                 is_real_extended(cr, tol) and not cr.infinite))
    for j in range(0, max(L - 3, 0), 2):
        out.append(Condition(f"{prefix} argsum[{j},{j+1},{j+2}]", complex(0), "0 mod 2pi",
                             arg_sum_is_zero([crs[j], crs[j + 1], crs[j + 2]], (1, 2, 1), tol)))
    if 2 <= L <= k - 1:
        j = L - 2
        out.append(Condition(f"{prefix} argsum[{j},{j+1}]", complex(0), "0 mod 2pi",
                             arg_sum_is_zero([crs[j], crs[j + 1]], (1, 2), tol)))
    return out


def _cross_pair_conditions(crs_b, crs_p, L, prefix, cfg):
    """Conditions tying the cross ratios of an elliptic pair together."""
    k = len(crs_b) + 1
    out = []

    def add(j, tag, defect, requirement):
        out.append(Condition(f"{prefix}[{j}]{tag}", complex(defect), requirement,
                             defect <= cfg.cr_tol))

    for j in range(k - 1):
        if j < L and j % 2 == 0:
            add(j, " product", unit_product_defect(crs_b[j], crs_p[j]), "product == 1")
        elif j < L - 2 and j % 2 == 1:
            add(j, " triple product",
                conj_product_defect(crs_b[j], [crs_p[j - 1], crs_p[j], crs_p[j + 1]]),
                "conjugate of product")
        elif j >= L:
            add(j, "", conj_pair_defect(crs_b[j], crs_p[j]), "conjugate pair")
    if 2 <= L <= k - 1:
        j = L - 1
        add(j, " boundary", conj_product_defect(crs_p[j], [crs_b[j - 1], crs_b[j]]),
            "conjugate of product")
    return out


def _cross_bases(infos, cfg):
    """Base flags ordered hyperbolic, then elliptic, then mixed generators;
    pair partners are listed consecutively ahead of hyperbolic directions.
    Yields (generator, flag, number of pair-derived directions)."""
    for kind in (KIND_HYPERBOLIC, KIND_ELLIPTIC, KIND_MIXED):
        for info in infos:
            if info.kind != kind:
                continue
            paired = [info.direction(i) for pair in info.labeling().pairing for i in pair]
            try:
                a = make_flag(paired + [info.direction(i) for i in info.hyp_indices()], cfg)
            except GenericityViolation:
                continue
            yield info, a, len(paired)


def _cross_conditions(infos, cfg):
    """Conditions against the first base flag pair and reference direction
    (a hyperbolic eigendirection of another generator) generic with every
    eigendirection."""
    for base, a, L in _cross_bases(infos, cfg):
        c = a.reversed()
        for provider in infos:
            if provider is base:
                continue
            for d_idx in provider.hyp_indices():
                try:
                    return _cross_with_base(infos, base, a, c, L, provider, d_idx, cfg)
                except GenericityViolation:
                    continue
    raise GenericityViolation(
        "no base flag pair and reference direction are generic for all eigendirections")


def _cross_with_base(infos, base, a, c, L, provider, d_idx, cfg):
    d = provider.direction(d_idx)
    # (generator, eigendirection indices): pairs, then hyperbolic directions
    checks = []
    for info in infos:
        if info is not base:
            checks += [(info, pair) for pair in info.labeling().pairing]
            checks += [(info, (i,)) for i in info.hyp_indices()
                       if info is not provider or i != d_idx]
    owners = [(info, i) for info, idx in checks for i in idx]
    lines = [info.direction(i) for info, i in owners]
    bad = first_nongeneric_line(a, lines, c, d, cfg)
    if bad is not None:
        info, i = owners[bad]
        raise GenericityViolation(f"generator {info.index}: eigendirection {i} not generic with the base")

    crs = iter(cross_ratio_sets(a, lines, c, d, cfg, check_genericity=False))
    conditions = []
    for info, idx in checks:
        sets = [next(crs) for _ in idx]
        if len(idx) == 1:
            conditions += _cross_hyp_conditions(sets[0], L, f"cr(A,h{info.index}.{idx[0]},C,d)", cfg)
        else:
            conditions += _cross_pair_conditions(
                *sets, L, f"cr(A,e{info.index}.{idx[0]}/{idx[1]},C,d)", cfg)
    return conditions, [f"base generator {base.index}, reference direction from {provider.index}"]


def decide_pglk_cross_only(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Per-eigendirection cross-ratio conditions against a base flag pair.

    The base pair comes from one generator's eigenbasis (pairs listed
    consecutively for elliptic/mixed bases) and the reference direction
    is a hyperbolic eigendirection of another generator.  A No from the
    all-hyperbolic base is a failed sufficient condition, so every No is
    confirmed by the direct method before being reported.
    """
    return _run_route(ms, cfg, infos, METHOD_CROSS, (MIN_DIM, MAX_DIM), _cross_conditions)


# ---------------------------------------------------------------------------
# direct method

_MAX_LABELINGS = 128


def decide_direct(ms, cfg: Tolerances = DEFAULT_TOLERANCES, infos=None):
    """Solve for a common conjugation from the eigendata directly.

    No genericity precondition; always Yes or No unless certification
    fails.  Non-generic generators contribute one labeling per
    admissible line and all combinations are tried.
    """
    infos = prepare(ms, cfg) if infos is None else infos
    options = [info.sclass.labelings for info in infos]
    total = math.prod(len(opt) for opt in options)
    if total > _MAX_LABELINGS:
        raise NumericalDegeneracy(f"{total} labeling combinations exceed the search cap")

    tol = max(1e-6, cfg.cert_tol)
    records = []
    for combo in itertools.product(*options):
        data = [d for info, lab in zip(infos, combo) for d in _eigendata(info, lab)]
        try:
            witness = conjugation_witness(data, cfg)
        except NoConjugation:
            continue
        good = [preserves(info.matrix, witness[0], tol) for info in infos]
        records = [Condition(f"preserves(M{info.index})", complex(0 if ok else 1),
                             "commutes with conjugation", ok) for info, ok in zip(infos, good)]
        if all(good):
            return _certify(infos, cfg, METHOD_DIRECT, records, [], witness)
    return _no_verdict(METHOD_DIRECT, records, ["no labeling admits a common real form"])


# ---------------------------------------------------------------------------
# dispatch

FORCED_METHODS = ("auto", "dim2", "dim3", "fg", "cross", "direct")

# looked up in the module namespace at call time
_ROUTES = {
    "dim2": "decide_pgl2",
    "dim3": "decide_pgl3",
    "fg": "decide_pglk_fg",
    "cross": "decide_pglk_cross_only",
    "direct": "decide_direct",
}


def decide(ms, cfg: Tolerances = DEFAULT_TOLERANCES, method: str = "auto"):
    """Decide simultaneous conjugacy into PGL(k,R) with a certificate.

    ``method`` forces one route ("dim2", "dim3", "fg", "cross",
    "direct"); "auto" cascades through the coordinate methods of the
    right dimension, falls back past any that raise, and ends in the
    direct one, recording each fallback reason in the certificate
    diagnostics.
    """
    if method not in FORCED_METHODS:
        raise ValueError(f"unknown method {method!r}")
    infos = prepare(ms, cfg)
    if method != "auto":
        return globals()[_ROUTES[method]](None, cfg, infos=infos)

    k = infos[0].es.dim
    notes = []
    if all(info.generic for info in infos):
        chain = ["dim2"] if k == 2 else ["dim3" if k == 3 else "fg", "cross"]
    else:
        chain = []
        notes.append("non-generic eigenvalues present; using the direct method")
    for name in chain:
        try:
            verdict, cert = globals()[_ROUTES[name]](None, cfg, infos=infos)
            break
        except RealformError as exc:
            if getattr(exc, "direct_failed", False):
                raise
            notes.append(f"{name}: {exc}")
    else:
        verdict, cert = decide_direct(None, cfg, infos=infos)
    cert.diagnostics = notes + cert.diagnostics
    return verdict, cert
