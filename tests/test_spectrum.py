import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realform.config import DEFAULT_TOLERANCES
from realform.errors import RepeatedEigenvalues
from realform.projlin import eig
from realform.spectrum import (
    ELLIPTIC,
    HYPERBOLIC,
    KIND_ELLIPTIC,
    KIND_HYPERBOLIC,
    KIND_INCOMPATIBLE,
    KIND_MIXED,
    Labeling,
    SpectralClass,
    classify_eigenvalues,
    type_transformation,
)


def test_two_reals_hyperbolic_generic():
    sc = classify_eigenvalues([1, -2])
    assert sc.compatible and sc.generic
    assert sc.kind == KIND_HYPERBOLIC
    assert len(sc.line_angles) == 1 and abs(sc.line_angles[0]) < 1e-12
    assert sc.labels == (HYPERBOLIC, HYPERBOLIC)


def test_conjugate_pair_elliptic_generic():
    sc = classify_eigenvalues([-1 - 2j, -1 + 2j])
    assert sc.compatible and sc.generic
    assert sc.kind == KIND_ELLIPTIC
    assert abs(sc.line_angles[0]) < 1e-12
    assert sc.pairing == ((0, 1),)


def test_two_admissible_lines_not_generic():
    sc = classify_eigenvalues([1j, -1j, 2, -2])
    assert sc.compatible and not sc.generic
    assert len(sc.line_angles) == 2
    assert {round(t, 9) for t in sc.line_angles} == {0.0, round(np.pi / 2, 9)}
    labels = {lab.labels for lab in sc.labelings}
    assert len(labels) == 2  # the two lines disagree on who is elliptic


def test_incompatible_spectrum():
    sc = classify_eigenvalues([2j, 1])
    assert not sc.compatible
    assert sc.kind == KIND_INCOMPATIBLE
    assert sc.line_angles == ()


def test_repeated_raises():
    with pytest.raises(RepeatedEigenvalues):
        classify_eigenvalues([1.0, 1.0 + 1e-9])


def test_mixed_kind():
    sc = classify_eigenvalues([2, 3, 1 + 1j, 1 - 1j])
    assert sc.kind == KIND_MIXED and sc.generic


def test_transformation_kinds():
    assert type_transformation(eig(np.array([[1 + 1j, 0], [0, 1 - 1j]]))).kind == KIND_ELLIPTIC
    a = np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]])
    assert type_transformation(eig(a)).kind == KIND_HYPERBOLIC


def test_labels_follow_input_order():
    sc = classify_eigenvalues([1 + 1j, 5.0, 1 - 1j])
    assert sc.labels == (ELLIPTIC, HYPERBOLIC, ELLIPTIC)
    assert sc.pairing == ((0, 2),)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_common_scale_rotates_line(seed):
    rng = np.random.default_rng(seed)
    lams = np.array([rng.uniform(0.5, 2), -rng.uniform(0.5, 2) - 0.2,
                     rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(0.3, 1.2))])
    lams = np.append(lams, np.conj(lams[2]))
    base = classify_eigenvalues(lams)
    if not base.generic:
        return
    s = np.exp(1j * rng.uniform(0, np.pi))
    scaled = classify_eigenvalues(s * lams)
    assert scaled.compatible == base.compatible
    assert scaled.generic == base.generic
    assert scaled.labels == base.labels
    assert scaled.pairing == base.pairing
    delta = (scaled.line_angles[0] - base.line_angles[0] - np.angle(s)) % np.pi
    assert min(delta, np.pi - delta) < 1e-7


@given(st.permutations([0, 1, 2, 3]))
@settings(max_examples=24, deadline=None)
def test_permutation_invariance(perm):
    lams = np.array([2.0, -3.0, 1 + 2j, 1 - 2j])
    base = classify_eigenvalues(lams)
    shuffled = classify_eigenvalues(lams[list(perm)])
    assert shuffled.compatible == base.compatible
    assert shuffled.generic == base.generic
    assert np.allclose(shuffled.line_angles, base.line_angles)
    inv = {pos: i for i, pos in enumerate(perm)}
    assert tuple(shuffled.labels[inv[i]] for i in range(4)) == base.labels


# ---------------------------------------------------------------------------
# reference: the candidate-by-candidate loop classify_eigenvalues replaced

def _ref_mod_pi(x):
    y = math.fmod(x, math.pi)
    return y + math.pi if y < 0 else y


def _ref_circ_dist_pi(a, b):
    d = abs(_ref_mod_pi(a) - _ref_mod_pi(b))
    return min(d, math.pi - d)


def _ref_validate_theta(lams, theta, cfg):
    k = len(lams)
    on_line = [_ref_circ_dist_pi(np.angle(lams[i]), theta) < cfg.angle_tol for i in range(k)]
    labels = [HYPERBOLIC if on_line[i] else None for i in range(k)]
    pairing = []
    reflect = np.exp(2j * theta) * np.conj(lams)
    taken = [False] * k
    for i in range(k):
        if on_line[i] or taken[i]:
            continue
        best_j, best_err = None, np.inf
        for j in range(k):
            if j == i or taken[j] or on_line[j]:
                continue
            err = abs(lams[j] - reflect[i]) / max(abs(lams[i]), abs(lams[j]))
            if err < best_err:
                best_j, best_err = j, err
        if best_j is None or best_err >= cfg.angle_tol:
            return None
        taken[i] = taken[best_j] = True
        labels[i] = labels[best_j] = ELLIPTIC
        pairing.append((min(i, best_j), max(i, best_j)))
    return Labeling(theta=theta, labels=tuple(labels), pairing=tuple(sorted(pairing)))


def reference_classify(lams, cfg=DEFAULT_TOLERANCES):
    lams = np.asarray(lams, dtype=complex).ravel()
    k = lams.size
    for i in range(k):
        for j in range(i + 1, k):
            if abs(lams[i] - lams[j]) / max(abs(lams[i]), abs(lams[j])) <= cfg.sep_tol:
                raise RepeatedEigenvalues(f"eigenvalues {lams[i]:.6g}, {lams[j]:.6g} coincide")
    args = np.angle(lams)
    candidates = [_ref_mod_pi(a) for a in args]
    for i in range(k):
        for j in range(i + 1, k):
            candidates.append(_ref_mod_pi((args[i] + args[j]) / 2.0))
    candidates.sort()
    labelings = []
    for theta in candidates:
        if any(_ref_circ_dist_pi(theta, seen.theta) < cfg.angle_tol for seen in labelings):
            continue
        lab = _ref_validate_theta(lams, theta, cfg)
        if lab is not None:
            labelings.append(lab)
    compatible = bool(labelings)
    forbidden_pair = any(
        abs(lams[i] + lams[j]) <= cfg.sep_tol * max(abs(lams[i]), abs(lams[j]))
        for i in range(k) for j in range(i + 1, k))
    generic = bool(compatible and len(labelings) == 1 and not forbidden_pair)
    if not compatible:
        kind = KIND_INCOMPATIBLE
    elif any(all(l == HYPERBOLIC for l in lab.labels) for lab in labelings):
        kind = KIND_HYPERBOLIC
    elif any(all(l == ELLIPTIC for l in lab.labels) for lab in labelings):
        kind = KIND_ELLIPTIC
    else:
        kind = KIND_MIXED
    return SpectralClass(compatible=compatible, line_angles=tuple(lab.theta for lab in labelings),
                         labelings=tuple(labelings), generic=generic, kind=kind)


def _outcome(fn, lams):
    """Everything a classification reports, floats by their bits."""
    try:
        sc = fn(lams)
    except Exception as exc:  # the exception type and message are part of the outcome
        return type(exc), str(exc)
    return (sc.compatible, sc.generic, sc.kind, [t.hex() for t in sc.line_angles],
            [(lab.theta.hex(), lab.labels, lab.pairing) for lab in sc.labelings])


TOL = DEFAULT_TOLERANCES.angle_tol


@st.composite
def spectra(draw):
    """Spectra organized by a line at angle theta (pairs reflected about it),
    optionally spoiled: a partner off its reflection by angle_tol * (1 +- 1e-3),
    a -lam partner (a second line), a repeated value, or a random entry."""
    k = draw(st.integers(2, 8))
    theta = draw(st.one_of(st.floats(0, math.pi), st.sampled_from([0.0, math.pi]),
                           st.floats(-1e-9, 1e-9), st.floats(math.pi - 1e-9, math.pi + 1e-9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    line = np.exp(1j * theta)
    n_pairs = draw(st.integers(0, k // 2))
    lams = []
    for _ in range(n_pairs):
        lam = rng.uniform(0.3, 3) * np.exp(1j * (theta + rng.uniform(0.05, math.pi - 0.05)))
        lams += [lam, line ** 2 * np.conj(lam)]
    lams += list(rng.uniform(0.3, 3, k - 2 * n_pairs) * rng.choice([-1, 1], k - 2 * n_pairs) * line)
    spoil = draw(st.sampled_from(["none", "tol_below", "tol_above", "negate", "repeat", "random"]))
    if spoil in ("tol_below", "tol_above") and n_pairs:
        # radial, so no other line reflects the pair more closely
        factor = 1 - 1e-3 if spoil == "tol_below" else 1 + 1e-3
        lams[1] *= 1 + factor * TOL
    elif spoil == "negate" and k - 2 * n_pairs >= 2:
        lams[-1] = -lams[-2]
    elif spoil == "repeat":
        lams[-1] = lams[0] * (1 + 1e-9)
    elif spoil == "random":
        lams[int(rng.integers(k))] = rng.normal() + 1j * rng.normal()
    return np.array(lams)[rng.permutation(k)]


@given(spectra())
@settings(max_examples=400, deadline=None)
def test_matches_reference_loop(lams):
    assert _outcome(classify_eigenvalues, lams) == _outcome(reference_classify, lams)


@pytest.mark.parametrize("lams", [
    [1j, -1j, 2, -2],                       # two admissible lines
    [1, -2],                                # argument 0 and pi
    [1 - 1e-17j, 2 + 1e-17j],               # arguments just below 0 wrap to pi
    [np.exp(-1e-17j), np.exp(1j * (math.pi - 1e-17))],
    [1 + 1j, 5.0, 1 - 1j],
    [1.0, 1.0 + 1e-9],                      # repeated
    [2j, 1],                                # incompatible
])
def test_matches_reference_on_edge_spectra(lams):
    assert _outcome(classify_eigenvalues, lams) == _outcome(reference_classify, lams)
