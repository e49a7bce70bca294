import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from realform import cli
from realform.config import DEFAULT_TOLERANCES, Tolerances
from realform.oracle import InstanceSpec, generate
from realform.spectrum import Labeling, SpectralClass

from conftest import eigensystem, unit_circle_collection

SRC = str(Path(cli.__file__).resolve().parents[1])

# the example of the README's Library section
README_COLLECTION = [np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]),
                     np.array([[1 + 1j, 0], [0, 1 - 1j]])]


def real_conjugates(eigenvalues, n, seed=7):
    """n conjugates of diag(eigenvalues) by random real matrices."""
    rng = np.random.default_rng(seed)
    k = len(eigenvalues)
    return [v @ np.diag(eigenvalues) @ np.linalg.inv(v)
            for v in (rng.normal(size=(k, k)) for _ in range(n))]


@pytest.fixture
def run_cli(capsys):
    """``cli.main`` in this process; the result reads like a finished process."""
    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)
    return run


def run_process(*args):
    """``python -m realform`` in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "realform", *args], capture_output=True,
                          text=True, env=env)


def write_doc(path, k, matrices, options=None):
    doc = {
        "k": k,
        "matrices": [[[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]
                     for m in matrices],
        "options": options or {},
    }
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def golden_file(tmp_path):
    ms = [
        np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]]),
        np.array([[3j + 1, -3j - 3], [3j - 3, -3j + 1]]),
        np.array([[1 + 1j, 0], [0, 1 - 1j]]),
        np.array([[-2 + 5j, -3], [-3, -2 - 5j]]),
    ]
    return write_doc(tmp_path / "golden.json", 2, ms)


@pytest.fixture
def no_file(tmp_path):
    ms = [np.array([[2 + 1j, 0], [0, 2 - 1j]]), np.array([[1, -1j], [-1j, 1]])]
    return write_doc(tmp_path / "no.json", 2, ms)


class TestClassify:
    def test_kinds(self, run_cli, golden_file):
        res = run_cli("classify", str(golden_file))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        kinds = [c["kind"] for c in doc["classifications"]]
        assert kinds == ["strictly_hyperbolic", "strictly_hyperbolic",
                         "strictly_elliptic", "strictly_elliptic"]

    def test_two_admissible_lines(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "m.json", 4, [np.diag([1j, -1j, 2, -2])])
        doc = json.loads(run_cli("classify", str(f)).stdout)
        c = doc["classifications"][0]
        assert c["compatible"] and not c["generic"]
        assert len(c["line_angles"]) == 2

    def test_incompatible_reported(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.diag([2j, 1])])
        res = run_cli("classify", str(f))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["classifications"][0]["kind"] == "incompatible"

    def test_entries_hold_the_dataclass_fields(self, run_cli, golden_file, tmp_path):
        # a field added to SpectralClass or Labeling reaches the output
        mixed = write_doc(tmp_path / "m.json", 4, [np.diag([1j, -1j, 2, -2])])
        for f in (golden_file, mixed):
            for c in json.loads(run_cli("classify", str(f)).stdout)["classifications"]:
                assert set(c) == {"index"} | {fl.name for fl in fields(SpectralClass)}
                assert c["labelings"]
                for lab in c["labelings"]:
                    assert set(lab) == {fl.name for fl in fields(Labeling)}

    def test_repeated_exit3(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.eye(2)])
        res = run_cli("classify", str(f))
        assert res.returncode == 3
        assert "matrix 0" in res.stderr

    def test_repeated_names_its_matrix(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.diag([2.0, 1.0]), np.eye(2)])
        res = run_cli("classify", str(f))
        assert res.returncode == 3
        assert "error: matrix 1: eigenvalues" in res.stderr and "matrix 0" not in res.stderr


class TestClassifyScale:
    # the largest entry 1e300 made eig's residual overflow (NonDiagonalizable)
    # and 1e308 the SVD's (SingularMatrix)
    @pytest.mark.parametrize("scale", [1e300, 1e308, 1e-300])
    @pytest.mark.parametrize("m", [[[1 + 1j, 1], [1j, 1]], [[0.5, 0.25], [0.25, 0.75]],
                                   [[0.5 + 0.5j, 0.25], [0, 0.5 - 0.5j]]],
                             ids=["incompatible", "hyperbolic", "elliptic"])
    def test_scale_classifies_like_scale_1(self, run_cli, tmp_path, scale, m):
        docs = []
        for s in (1, scale):
            f = write_doc(tmp_path / "m.json", 2, [s * np.array(m)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = run_cli("classify", str(f))
            assert res.returncode == 0, res.stderr
            docs.append(json.loads(res.stdout)["classifications"][0])
        assert docs[1]["kind"] == docs[0]["kind"]
        assert docs[1]["line_angles"] == pytest.approx(docs[0]["line_angles"], abs=1e-12)
        assert [lab["labels"] for lab in docs[1]["labelings"]] == \
            [lab["labels"] for lab in docs[0]["labelings"]]

    def test_scale_decides_like_scale_1(self, run_cli, golden_file, tmp_path):
        doc = json.loads(golden_file.read_text())
        doc["matrices"] = [[[[1e300 * x for x in z] for z in row] for row in m]
                           for m in doc["matrices"]]
        (tmp_path / "big.json").write_text(json.dumps(doc))
        res = run_cli("decide", str(tmp_path / "big.json"))
        assert res.returncode == 0 and json.loads(res.stdout)["verdict"] == "yes"


class TestDecide:
    def test_yes_exit0(self, run_cli, golden_file):
        res = run_cli("decide", str(golden_file))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "yes"
        assert doc["residual"] < 1e-8
        assert doc["gamma"] is not None

    def test_no_exit1(self, run_cli, no_file):
        res = run_cli("decide", str(no_file))
        assert res.returncode == 1
        assert json.loads(res.stdout)["verdict"] == "no"

    def test_forced_method_genericity_exit4(self, run_cli, tmp_path):
        ms = [np.diag([2.0, 1.0]), np.diag([5.0, 1.0])]
        f = write_doc(tmp_path / "m.json", 2, ms)
        res = run_cli("decide", str(f), "--method", "dim2")
        assert res.returncode == 4

    @pytest.mark.parametrize("eigenvalues,method", [
        ((1.0, -1.0, 2.0), "dim3"), ((1.0, -1.0, 2.0), "fg"), ((1.0, -1.0, 2.0), "cross"),
        ((1.0, -1.0), "dim2"), ((1.0, -1.0), "cross")])
    def test_forced_route_on_nongeneric_spectrum_exit3(self, run_cli, tmp_path, eigenvalues,
                                                       method):
        # 1 and -1 admit more than one labeling, so coordinate routes refuse
        f = write_doc(tmp_path / "m.json", len(eigenvalues), real_conjugates(eigenvalues, 2))
        res = run_cli("decide", str(f), "--method", method)
        assert res.returncode == 3
        assert "have non-generic eigenvalues" in res.stderr
        assert run_cli("decide", str(f)).returncode == 0

    @pytest.mark.parametrize("method", ["direct", "auto"])
    def test_labeling_search_cap_exit5(self, run_cli, tmp_path, method):
        # two labelings per member, eight members: 2**8 combinations
        f = write_doc(tmp_path / "m.json", 2, real_conjugates((1.0, -1.0), 8))
        res = run_cli("decide", str(f), "--method", method)
        assert res.returncode == 5
        assert "256 labeling combinations exceed the search cap" in res.stderr

    def test_wrong_dimension_for_method_exit3(self, run_cli, golden_file):
        res = run_cli("decide", str(golden_file), "--method", "dim3")
        assert res.returncode == 3

    def test_singular_names_its_matrix_exit5(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.diag([2.0, 1.0]), np.diag([1.0, 0.0]),
                                               np.diag([3.0, 1.0])])
        res = run_cli("decide", str(f))
        assert res.returncode == 5
        assert "error: matrix 1: matrix is singular within deg_tol" in res.stderr

    @pytest.mark.parametrize("command", ["classify", "decide", "coords"])
    def test_direction_below_deg_tol_exit3(self, run_cli, tmp_path, command):
        # a valid deg_tol above the largest entry of every unit eigenvector
        # of the cyclic shift (8^-1/2): the direction gate refuses them
        f = write_doc(tmp_path / "m.json", 8, [np.roll(np.eye(8), 1, axis=0)])
        res = run_cli(command, str(f), "--deg-tol", "0.9")
        assert res.returncode == 3
        assert res.stderr == "error: matrix 0: zero vector does not define a projective point\n"

    def test_determinism(self, golden_file):
        out1 = run_process("decide", str(golden_file)).stdout
        out2 = run_process("decide", str(golden_file)).stdout
        assert out1 == out2

    def test_tolerance_flag_overrides(self, run_cli, no_file, tmp_path):
        # flags reach the tolerance config: a huge sep-tol makes distinct
        # eigenvalues look repeated
        res = run_cli("decide", str(no_file), "--sep-tol", "0.99")
        assert res.returncode == 3

    @pytest.mark.parametrize("name", [f.name for f in fields(Tolerances)])
    def test_each_tolerance_flag_overrides_its_field(self, name):
        flag = "--" + name.replace("_", "-")
        expected = DEFAULT_TOLERANCES.override(**{name: 0.125})
        for argv in (["classify", "in.json"], ["decide", "in.json"], ["coords", "in.json"],
                     ["verify", "in.json", "--gamma", "g.json"]):
            args = cli.build_parser().parse_args([*argv, flag, "0.125"])
            assert cli._tolerances({}, args) == expected
            # a flag wins over the same name in the document's options
            assert cli._tolerances({"tolerances": {name: 0.5}}, args) == expected

    @pytest.mark.parametrize("ms", [README_COLLECTION, unit_circle_collection()],
                             ids=["readme", "unit_circle"])
    @pytest.mark.parametrize("flags, tolerances", [
        (["--cr-tol", "nan"], {}),
        (["--cr-tol", "-1"], {}),
        (["--rank-tol", "nan"], {}),
        ([], {"cr_tol": "nan"}),
        ([], {"cert_tol": 0}),
        ([], {"cr_tol": True}),
        # a string read as a number decided under cr_tol = 0.001 and sep_tol = 0.5
        ([], {"cr_tol": "1e-3"}),
        ([], {"sep_tol": " 0.5 "}),
        ([], {"cr_tol": None}),
    ], ids=["flag-cr-nan", "flag-cr-negative", "flag-rank-nan", "doc-cr-nan", "doc-cert-zero",
            "doc-cr-bool", "doc-cr-string", "doc-sep-padded-string", "doc-cr-null"])
    def test_bad_tolerance_exit2(self, run_cli, tmp_path, ms, flags, tolerances):
        # both collections are Yes; a NaN or negative cr_tol made them a definite No
        f = write_doc(tmp_path / "in.json", 2, ms, {"tolerances": tolerances})
        res = run_cli("decide", str(f), *flags)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_k_out_of_range_exit2(self, run_cli, tmp_path):
        f = write_doc(tmp_path / "k9.json", 9, [np.diag(np.arange(1.0, 10.0))])
        res = run_cli("decide", str(f))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_singular_matrix_exit5(self, run_cli, tmp_path):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = write_doc(tmp_path / "singular.json", 2, [singular])
        res = run_cli("decide", str(f))
        assert res.returncode == 5
        assert "Traceback" not in res.stderr
        # a singular realifier handed to verify is the same failure
        g = write_doc(tmp_path / "ok.json", 2, [np.diag([2.0, 1.0])])
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": [[[x, 0] for x in row] for row in singular]}))
        res = run_cli("verify", str(g), "--gamma", str(gfile))
        assert res.returncode == 5
        assert "Traceback" not in res.stderr

    def test_failed_certificate_exit5(self, run_cli, golden_file, tmp_path):
        doc = json.loads(golden_file.read_text())
        doc["options"] = {"tolerances": {"cert_tol": 1e-16}}
        f = tmp_path / "tight.json"
        f.write_text(json.dumps(doc))
        res = run_cli("decide", str(f))
        assert res.returncode == 5
        assert "Traceback" not in res.stderr

    def test_parse_error_exit2(self, run_cli, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert run_cli("decide", str(f)).returncode == 2
        g = tmp_path / "badshape.json"
        g.write_text(json.dumps({"k": 2, "matrices": [[[[1, 0]]]]}))
        assert run_cli("decide", str(g)).returncode == 2


DIAG = [[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]
BIG = 10**400   # an integer no float can hold


@pytest.mark.parametrize("argv, doc, gamma", [
    (["decide"], {"k": 2, "matrices": 5}, None),
    (["decide"], {"k": 2, "matrices": [5]}, None),
    (["classify"], {"k": 2, "matrices": 5}, None),
    (["classify"], {"k": 2, "matrices": [5]}, None),
    (["decide"], {"k": 2, "matrices": DIAG, "options": {"tolerances": [1]}}, None),
    (["decide"], {"k": 2, "matrices": DIAG, "options": 5}, None),
    (["verify"], {"k": 2, "matrices": DIAG}, [[[1, 0]], [[1, 0], [0, 0]]]),
    pytest.param(["decide"], {"k": 2, "matrices": [[[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]]]}, None,
                 id="huge-int-entry"),
    pytest.param(["verify"], {"k": 2, "matrices": DIAG}, [[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]],
                 id="huge-int-gamma"),
    pytest.param(["decide"], {"k": 2, "matrices": DIAG, "options": {"tolerances": {"cr_tol": BIG}}},
                 None, id="huge-int-tolerance"),
    pytest.param(["decide"], b'{"k": 2, "matrices": [[[[1' + b"0" * 5000 + b', 0]]]]}', None,
                 id="int-literal-over-4300-digits"),
    pytest.param(["decide"], b'{"k": 2, "matrices": "\xff"}', None, id="non-utf8-document"),
    pytest.param(["verify"], {"k": 2, "matrices": DIAG}, b'{"gamma": "\xfe"}', id="non-utf8-gamma"),
    pytest.param(["verify"], {"k": 2, "matrices": DIAG}, np.eye(3)[..., None].repeat(2, -1).tolist(),
                 id="gamma-size-differs"),
    pytest.param(["decide"], b"[" * 100_000 + b"]" * 100_000, None, id="nesting-too-deep"),
    # JSON booleans are not numbers, though Python's bool is an int
    pytest.param(["decide"], {"k": 2, "matrices": [[[[True, 0], [0, 0]], [[0, 0], [2, 0]]]]}, None,
                 id="bool-entry"),
    pytest.param(["decide"], {"k": True, "matrices": DIAG}, None, id="bool-k"),
    pytest.param(["verify"], {"k": 2, "matrices": DIAG}, [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
                 id="bool-gamma"),
    pytest.param(["decide"], {"k": 2, "matrices": DIAG, "options": {"tolerances": {"cr_tol": True}}},
                 None, id="bool-tolerance"),
])
def test_malformed_document_exit2(run_cli, tmp_path, argv, doc, gamma):
    f = tmp_path / "doc.json"
    f.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    if gamma is not None:
        g = tmp_path / "gamma.json"
        g.write_bytes(gamma if isinstance(gamma, bytes) else json.dumps({"gamma": gamma}).encode())
        argv = [*argv, "--gamma", str(g)]
    res = run_cli(*argv, str(f))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_boolean_k_is_not_an_integer(run_cli, tmp_path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps({"k": True, "matrices": DIAG}))
    res = run_cli("decide", str(f))
    assert (res.returncode, res.stderr) == (2, "error: 'k' must be an integer\n")


@pytest.mark.parametrize("doc, message", [
    ({"matrices": DIAG}, "input document needs fields 'k' and 'matrices'"),
    ({"k": 2}, "input document needs fields 'k' and 'matrices'"),
    ({"k": 2, "matrices": DIAG, "options": {"tolerances": {"bogus_tol": 1e-3}}},
     "bad tolerance override in document: unknown tolerance names: ['bogus_tol']"),
    # Python's json reads the literals NaN, Infinity and -Infinity as floats
    *[({"k": 2, "matrices": [[[[x, 0], [1, 0]], [[0, 0], [1, 0]]]]}, "non-finite number in input")
      for x in (float("nan"), float("inf"), -float("inf"))],
], ids=["no-k", "no-matrices", "unknown-tolerance", "nan-entry", "infinity-entry",
        "minus-infinity-entry"])
def test_document_error_names_the_fault(run_cli, tmp_path, doc, message):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    res = run_cli("decide", str(f))
    assert (res.returncode, res.stderr) == (2, f"error: {message}\n")


def test_malformed_document_exit2_in_a_fresh_process(tmp_path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps({"k": 2, "matrices": [[[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
    res = run_process("decide", str(f))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_python_m_realform_matches_main(run_cli, golden_file):
    res = run_process("decide", str(golden_file))
    assert res.returncode == 0
    assert res.stdout == run_cli("decide", str(golden_file)).stdout


@pytest.mark.parametrize("argv, code", [
    (["decide"], 2), (["bogus"], 2), (["decide", "x.json", "--method", "nope"], 2), ([], 2),
    (["--help"], 0), (["coords", "--help"], 0),
])
def test_main_returns_the_argparse_code(run_cli, argv, code):
    res = run_cli(*argv)
    assert res.returncode == code
    if code:
        assert res.stderr.startswith("usage: realform") and "error: " in res.stderr
        assert res.stdout == ""
    else:
        assert res.stdout.startswith("usage: realform") and res.stderr == ""


def test_python_m_realform_exits_with_the_argparse_code(run_cli):
    res = run_process("decide", "x.json", "--method", "nope")
    assert res.returncode == 2
    assert res.stderr == run_cli("decide", "x.json", "--method", "nope").stderr


class TestRepeatedMain:
    """``main`` builds its parser once and keeps no state between calls."""

    def test_one_parser_per_process(self, run_cli, golden_file, monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        try:
            codes = [run_cli(cmd, str(golden_file)).returncode
                     for cmd in ("decide", "classify", "coords", "decide")]
        finally:
            cli.build_parser.cache_clear()
        assert codes == [0, 0, 4, 0]
        # one top-level parser, the shared parent of the four document
        # commands, and the five subcommand parsers, for all four calls
        assert made.count("realform") == 1 and len(made) == 7

    def test_later_calls_match_a_fresh_process(self, run_cli, no_file, golden_file, tmp_path):
        assert run_cli("decide", str(no_file), "--sep-tol", "0.99").returncode == 3
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": json.loads(run_cli("decide", str(golden_file)).stdout)
                                     ["gamma"]}))
        for argv in (["decide", str(no_file)], ["classify", str(golden_file)],
                     ["coords", str(golden_file)], ["verify", str(golden_file), "--gamma", str(gfile)]):
            fresh = run_process(*argv)
            res = run_cli(*argv)
            assert (res.returncode, res.stdout, res.stderr) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv


# JSON values of every kind a document can hold where a number belongs
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(-4, 4),
                    st.sampled_from([BIG, -BIG, 2**1024, 1.7976931348623157e308, 5e-324,
                                     float("nan"), float("inf")]))
_ANY = st.one_of(_NUMBER, st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=2))
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_ENTRY = st.one_of(_PAIR, st.lists(_ANY, max_size=3), _ANY)


def _one_in_four(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def _documents(draw):
    """A document text: mostly well formed, and one time in four each with
    ragged rows, malformed entries, a wrong ``k`` or bad tolerances; raw
    NaN and Infinity and huge integers stand among the numbers."""
    k = draw(st.sampled_from([2, 3]))
    rows = st.integers(k - 1, k + 1) if _one_in_four(draw) else st.just(k)
    entry = _ENTRY if _one_in_four(draw) else _PAIR
    matrices = [[[draw(entry) for _ in range(draw(rows))] for _ in range(draw(rows))]
                for _ in range(draw(st.integers(1, 3)))]
    doc = {"k": draw(_ANY) if _one_in_four(draw) else k, "matrices": matrices}
    if _one_in_four(draw):
        doc["options"] = {"tolerances": draw(st.dictionaries(
            st.sampled_from(["cr_tol", "cert_tol", "sep_tol", "no_such_tol"]), _ANY, max_size=2))}
    return json.dumps(doc)   # floats nan and inf are written as NaN and Infinity


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_documents())
def test_decide_never_raises(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["decide", str(path)])
    assert type(code) is int and 0 <= code <= 6


class TestCoords:
    def test_k3_counts(self, run_cli, tmp_path):
        res = run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                      "--seed", "3", "-o", str(tmp_path / "g.json"))
        assert res.returncode == 0
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        assert len(doc["cross_ratios"]) == 2
        assert len(doc["triple_ratios"]) == 2

    def test_k4_counts_per_flag(self, run_cli, tmp_path):
        run_cli("generate", "--k", "4", "--generators", "3", "--hyperbolic", "3",
                "--seed", "4", "-o", str(tmp_path / "g.json"))
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        by_flag = {}
        for row in doc["cross_ratios"]:
            by_flag.setdefault((row["generator"], row["flag"]), []).append(row)
        assert {len(v) for v in by_flag.values()} == {3}
        tr_by_flag = {}
        for row in doc["triple_ratios"]:
            tr_by_flag.setdefault((row["generator"], row["flag"]), []).append(row)
        assert {len(v) for v in tr_by_flag.values()} == {3}

    def test_k2_cross_ratios_match_the_quotient(self, run_cli, tmp_path):
        from realform import flags
        from realform.coords import cross_ratio, fg_cross_ratio
        from realform.decide import prepare
        from realform.projlin import ProjPoint

        path = tmp_path / "g.json"
        assert run_cli("generate", "--k", "2", "--generators", "3", "--hyperbolic", "3",
                       "--seed", "4", "-o", str(path)).returncode == 0
        res = run_cli("coords", str(path))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["triple_ratios"] == []
        assert [(row["flag"], row["i"], row["j"]) for row in doc["cross_ratios"]] == \
            [("B", 0, 0), ("beta", 0, 0), ("beta_prime", 0, 0)]
        # reference: at k = 2 the one quotient, by A_0 + C_0, is C^2 itself
        pairs = np.array(json.loads(path.read_text())["matrices"])
        g, h, other = prepare(list(pairs[..., 0] + 1j * pairs[..., 1]))
        (a, c), (b, d), (beta, beta_rev) = (flags.flag_pair_from_eigensystem(eigensystem(x))
                                            for x in (g, h, other))
        assert [row["generator"] for row in doc["cross_ratios"]] == [h.index, other.index, other.index]
        d1 = ProjPoint(d[0])
        for row, line in zip(doc["cross_ratios"], (b[0], beta[0], beta_rev[0])):
            config = flags.quotient_cp1(a, ProjPoint(line), c, d1, 0, 0)
            for key, ref in (("value", cross_ratio(*config, provenance=(0, 0))),
                             ("fg_value", fg_cross_ratio(*config))):
                assert abs(complex(*row[key]) - ref.value) <= 1e-9 * abs(ref.value)

    def test_without_two_hyperbolic_generators_exit4(self, run_cli, tmp_path):
        run_cli("generate", "--k", "4", "--generators", "2", "--elliptic", "2",
                "--seed", "1", "-o", str(tmp_path / "g.json"))
        res = run_cli("coords", str(tmp_path / "g.json"))
        assert res.returncode == 4
        assert "coordinate dump needs two strictly hyperbolic generators" in res.stderr

    def test_real_collection_real_coords(self, run_cli, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "5", "--no-scramble", "-o", str(tmp_path / "g.json"))
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        for row in doc["cross_ratios"] + doc["triple_ratios"]:
            assert abs(row["value"][1]) < 1e-8

    def test_both_normalizations_consistent(self, run_cli, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "6", "-o", str(tmp_path / "g.json"))
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        assert doc["cross_ratios"]
        for row in doc["cross_ratios"]:
            # [A,B,C,D] * [[A,B,C,D]] = (C - B) / (B - C) = -1 on the same configuration
            product = complex(*row["value"]) * complex(*row["fg_value"])
            assert abs(product + 1) <= 1e-9


    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_coords_print_the_values_fg_reads(self, run_cli, tmp_path, k):
        from realform.decide import decide

        inst = generate(InstanceSpec(k=k, n_generators=3, type_mix={"hyperbolic": 3}, seed=k))
        doc = json.loads(run_cli("coords", str(write_doc(tmp_path / "g.json", k,
                                                         inst.matrices))).stdout)
        _, cert = decide(inst.matrices, method="fg")
        fg = {c.name: cli._c2pair(c.value) for c in cert.conditions}
        assert len(doc["cross_ratios"]) + len(doc["triple_ratios"]) == len(fg)

        def flag(row):
            return {"B": "B", "D": "D", "beta": f"b{row['generator']}",
                    "beta_prime": f"b'{row['generator']}"}[row["flag"]]

        for row in doc["cross_ratios"]:
            assert row["value"] == fg[f"cr(A,{flag(row)},C,D)[{row['i']}]"]
        for row in doc["triple_ratios"]:
            name = "r3(A,C,D)" if row["flag"] == "D" else f"r3(A,{flag(row)},C)"
            assert row["value"] == fg[f"{name}{(row['i'], row['j'], row['l'])}"]

    def test_cross_ratios_need_no_complement_bases(self, tmp_path, monkeypatch, capsys):
        from realform import flags
        from realform.coords import cross_ratio, fg_cross_ratio
        from realform.decide import prepare
        from realform.oracle import InstanceSpec, generate
        from realform.projlin import ProjPoint

        k = 8
        inst = generate(InstanceSpec(k=k, n_generators=3, type_mix={"hyperbolic": 3}, seed=8))
        path = write_doc(tmp_path / "g.json", k, inst.matrices)
        cp1_svds = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            if a.shape[-2:] == (k - 2, k):   # rows of A_i + C_j with i + j = k - 2
                cp1_svds.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert cli.main(["coords", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        # the lines' eigen-coordinates carry every quotient: no complement basis is built
        assert cp1_svds == []

        # reference: one quotient_cp1 per (flag, i), each building its own basis
        g, h, other = prepare(inst.matrices)
        (a, c), (b, d), (beta, beta_rev) = (flags.flag_pair_from_eigensystem(eigensystem(x))
                                            for x in (g, h, other))
        d1 = ProjPoint(d[0])
        expected = []
        for f, owner, tag in ((b, h.index, "B"), (beta, other.index, "beta"),
                              (beta_rev, other.index, "beta_prime")):
            for i in range(k - 1):
                config = flags.quotient_cp1(a, ProjPoint(f[0]), c, d1, i, k - 2 - i)
                expected.append({
                    "generator": owner, "flag": tag, "i": i, "j": k - 2 - i,
                    "value": cross_ratio(*config, provenance=(i, k - 2 - i)).value,
                    "fg_value": fg_cross_ratio(*config).value,
                })
        assert len(doc["cross_ratios"]) == 3 * (k - 1)
        for row, ref in zip(doc["cross_ratios"], expected):
            assert {key: row[key] for key in ("generator", "flag", "i", "j")} == \
                {key: ref[key] for key in ("generator", "flag", "i", "j")}
            for key in ("value", "fg_value"):
                assert abs(complex(*row[key]) - ref[key]) <= 1e-9 * abs(ref[key])


class TestGenerateVerify:
    def test_seed_byte_determinism(self, run_cli, tmp_path):
        a = run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                    "--seed", "9").stdout
        b = run_process("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                        "--seed", "9").stdout
        assert a == b

    def test_sidecar_verifies(self, run_cli, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "3", "--hyperbolic", "2",
                "--elliptic", "1", "--seed", "42", "-o", str(tmp_path / "g.json"))
        truth = json.loads((tmp_path / "g.json.truth").read_text())
        assert truth["answer"] == "yes"
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": truth["gamma"]}))
        res = run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile))
        assert res.returncode == 0
        assert json.loads(res.stdout)["residual"] < 1e-10

    def test_identity_gamma_on_real_input(self, run_cli, tmp_path):
        run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                "--seed", "5", "--no-scramble", "-o", str(tmp_path / "g.json"))
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": eye}))
        res = run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile))
        assert res.returncode == 0
        assert json.loads(res.stdout)["residual"] < 1e-12

    def test_wrong_gamma_exit1(self, run_cli, tmp_path):
        run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                "--seed", "8", "-o", str(tmp_path / "g.json"))
        wrong = [[[1, 0], [2, 1]], [[0, 1], [1, 0]]]
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": wrong}))
        assert run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile)).returncode == 1

    @pytest.mark.parametrize("scale", [1e170, 1e200, 1e-200])
    def test_wrong_gamma_exit1_at_any_scale(self, run_cli, tmp_path, scale):
        # a wrong gamma read residual 0 once n * n overflowed or underflowed
        inst = generate(InstanceSpec(k=3, n_generators=2, type_mix={"hyperbolic": 2}, seed=19))
        wrong = [[[1, 0], [2, 1], [0, 0]], [[0, 1], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 1]]]
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": wrong}))
        residuals = []
        for s in (1, scale):
            write_doc(tmp_path / "g.json", 3, [s * m for m in inst.matrices])
            res = run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile))
            assert res.returncode == 1
            residuals.append(json.loads(res.stdout)["residual"])
        assert residuals[1] == pytest.approx(residuals[0], rel=1e-12)

    def test_infeasible_mix_exit2(self, run_cli):
        res = run_cli("generate", "--k", "5", "--generators", "1", "--elliptic", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("k, n, extra", [(9, 2, []), (1, 2, []), (3, 0, []),
                                             (3, 2, ["--perturb", "1:nan"]),
                                             (3, 2, ["--seed", "-1"])])
    def test_bad_spec_exit2(self, run_cli, tmp_path, k, n, extra):
        out = tmp_path / "g.json"
        res = run_cli("generate", "--k", str(k), "--generators", str(n), *extra, "-o", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert not out.exists()

    def test_retry_cap_exit2(self, run_cli, tmp_path):
        # at k = 2 twenty hyperbolic generators never pass the fixed-point separation gate
        out = tmp_path / "g.json"
        res = run_cli("generate", "--k", "2", "--generators", "20", "-o", str(out))
        assert (res.returncode, res.stderr) == (
            2, "error: could not realize the requested mix after many attempts\n")
        assert not out.exists()

    def test_malformed_perturb_exit2(self, run_cli, tmp_path):
        out = tmp_path / "g.json"
        res = run_cli("generate", "--k", "2", "--generators", "2", "--perturb", "0:x", "-o", str(out))
        assert (res.returncode, res.stderr) == (2, "error: --perturb takes GENERATOR:MAGNITUDE\n")
        assert not out.exists()

    def test_inconclusive_exit6(self, run_cli, tmp_path):
        # at this perturbation float64 cannot separate yes from no
        run_cli("generate", "--k", "6", "--generators", "3", "--hyperbolic", "3",
                "--seed", "0", "--perturb", "0:1e-8", "-o", str(tmp_path / "g.json"))
        res = run_cli("decide", str(tmp_path / "g.json"))
        assert res.returncode == cli.EXIT_INCONCLUSIVE == 6
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "inconclusive" and doc["gamma"] is None

    def test_perturbed_sidecar(self, run_cli, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "3", "--perturb", "1:0.05", "-o", str(tmp_path / "g.json"))
        truth = json.loads((tmp_path / "g.json.truth").read_text())
        assert truth["answer"] == "no" and truth["gamma"] is None
        assert run_cli("decide", str(tmp_path / "g.json")).returncode == 1
