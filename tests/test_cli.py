import json
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "realform.cli"]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=full_env)


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
    def test_kinds(self, golden_file):
        res = run_cli("classify", str(golden_file))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        kinds = [c["kind"] for c in doc["classifications"]]
        assert kinds == ["strictly_hyperbolic", "strictly_hyperbolic",
                         "strictly_elliptic", "strictly_elliptic"]

    def test_two_admissible_lines(self, tmp_path):
        f = write_doc(tmp_path / "m.json", 4, [np.diag([1j, -1j, 2, -2])])
        doc = json.loads(run_cli("classify", str(f)).stdout)
        c = doc["classifications"][0]
        assert c["compatible"] and not c["generic"]
        assert len(c["line_angles"]) == 2

    def test_incompatible_reported(self, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.diag([2j, 1])])
        res = run_cli("classify", str(f))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["classifications"][0]["kind"] == "incompatible"

    def test_repeated_exit3(self, tmp_path):
        f = write_doc(tmp_path / "m.json", 2, [np.eye(2)])
        res = run_cli("classify", str(f))
        assert res.returncode == 3
        assert "matrix 0" in res.stderr


class TestDecide:
    def test_yes_exit0(self, golden_file):
        res = run_cli("decide", str(golden_file))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["verdict"] == "yes"
        assert doc["residual"] < 1e-8
        assert doc["gamma"] is not None

    def test_no_exit1(self, no_file):
        res = run_cli("decide", str(no_file))
        assert res.returncode == 1
        assert json.loads(res.stdout)["verdict"] == "no"

    def test_forced_method_genericity_exit4(self, tmp_path):
        ms = [np.diag([2.0, 1.0]), np.diag([5.0, 1.0])]
        f = write_doc(tmp_path / "m.json", 2, ms)
        res = run_cli("decide", str(f), "--method", "dim2")
        assert res.returncode == 4

    def test_wrong_dimension_for_method_exit3(self, golden_file):
        res = run_cli("decide", str(golden_file), "--method", "dim3")
        assert res.returncode == 3

    def test_determinism(self, golden_file):
        out1 = run_cli("decide", str(golden_file)).stdout
        out2 = run_cli("decide", str(golden_file)).stdout
        assert out1 == out2

    def test_tolerance_flag_overrides(self, no_file, tmp_path):
        # flags reach the tolerance config: a huge sep-tol makes distinct
        # eigenvalues look repeated
        res = run_cli("decide", str(no_file), "--sep-tol", "0.99")
        assert res.returncode == 3

    def test_k_out_of_range_exit2(self, tmp_path):
        f = write_doc(tmp_path / "k9.json", 9, [np.diag(np.arange(1.0, 10.0))])
        res = run_cli("decide", str(f))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_singular_matrix_exit5(self, tmp_path):
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

    def test_failed_certificate_exit5(self, golden_file, tmp_path):
        doc = json.loads(golden_file.read_text())
        doc["options"] = {"tolerances": {"cert_tol": 1e-16}}
        f = tmp_path / "tight.json"
        f.write_text(json.dumps(doc))
        res = run_cli("decide", str(f))
        assert res.returncode == 5
        assert "Traceback" not in res.stderr

    def test_parse_error_exit2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert run_cli("decide", str(f)).returncode == 2
        g = tmp_path / "badshape.json"
        g.write_text(json.dumps({"k": 2, "matrices": [[[[1, 0]]]]}))
        assert run_cli("decide", str(g)).returncode == 2


class TestCoords:
    def test_k3_counts(self, tmp_path):
        res = run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                      "--seed", "3", "-o", str(tmp_path / "g.json"))
        assert res.returncode == 0
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        assert len(doc["cross_ratios"]) == 2
        assert len(doc["triple_ratios"]) == 2

    def test_k4_counts_per_flag(self, tmp_path):
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

    def test_real_collection_real_coords(self, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "5", "--no-scramble", "-o", str(tmp_path / "g.json"))
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        for row in doc["cross_ratios"] + doc["triple_ratios"]:
            assert abs(row["value"][1]) < 1e-8

    def test_both_normalizations_consistent(self, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "6", "-o", str(tmp_path / "g.json"))
        doc = json.loads(run_cli("coords", str(tmp_path / "g.json")).stdout)
        assert doc["cross_ratios"]
        for row in doc["cross_ratios"]:
            # [A,B,C,D] * [[A,B,C,D]] = (C - B) / (B - C) = -1 on the same configuration
            product = complex(*row["value"]) * complex(*row["fg_value"])
            assert abs(product + 1) <= 1e-9


class TestGenerateVerify:
    def test_seed_byte_determinism(self, tmp_path):
        a = run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                    "--seed", "9").stdout
        b = run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                    "--seed", "9").stdout
        assert a == b

    def test_env_seed_overrides(self):
        a = run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                    "--seed", "1", env={"REALFORM_SEED": "77"}).stdout
        b = run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                    "--seed", "77").stdout
        assert a == b

    def test_sidecar_verifies(self, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "3", "--hyperbolic", "2",
                "--elliptic", "1", "--seed", "42", "-o", str(tmp_path / "g.json"))
        truth = json.loads((tmp_path / "g.json.truth").read_text())
        assert truth["answer"] == "yes"
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": truth["gamma"]}))
        res = run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile))
        assert res.returncode == 0
        assert json.loads(res.stdout)["residual"] < 1e-10

    def test_identity_gamma_on_real_input(self, tmp_path):
        run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                "--seed", "5", "--no-scramble", "-o", str(tmp_path / "g.json"))
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": eye}))
        res = run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile))
        assert res.returncode == 0
        assert json.loads(res.stdout)["residual"] < 1e-12

    def test_wrong_gamma_exit1(self, tmp_path):
        run_cli("generate", "--k", "2", "--generators", "2", "--hyperbolic", "2",
                "--seed", "8", "-o", str(tmp_path / "g.json"))
        wrong = [[[1, 0], [2, 1]], [[0, 1], [1, 0]]]
        gfile = tmp_path / "gamma.json"
        gfile.write_text(json.dumps({"gamma": wrong}))
        assert run_cli("verify", str(tmp_path / "g.json"), "--gamma", str(gfile)).returncode == 1

    def test_infeasible_mix_exit2(self):
        res = run_cli("generate", "--k", "5", "--generators", "1", "--elliptic", "1")
        assert res.returncode == 2

    def test_perturbed_sidecar(self, tmp_path):
        run_cli("generate", "--k", "3", "--generators", "2", "--hyperbolic", "2",
                "--seed", "3", "--perturb", "1:0.05", "-o", str(tmp_path / "g.json"))
        truth = json.loads((tmp_path / "g.json.truth").read_text())
        assert truth["answer"] == "no" and truth["gamma"] is None
        assert run_cli("decide", str(tmp_path / "g.json")).returncode == 1
