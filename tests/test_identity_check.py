import json

from conftest import load_script


def test_dump_and_compare(tmp_path, capsys):
    ic = load_script("identity_check")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert ic.main(["dump", str(first), "--limit", "1"]) == 0
    ops = json.loads(first.read_text())
    # one instance of each seed set of each workload, under every method, and
    # one seed of each of the 8 conditioning and 9 perturbation cells under 4
    # methods, plus one sha256 record per instance and three CLI commands on
    # each cli_docs document
    assert len(ops) == 3 * 2 * 6 + (8 + 9) * 4 + 3 * 2 + (8 + 9) + 2 * 3
    assert "boundary/conditioned/1e4/8/0/fg" in ops and "boundary/perturbed/1e-09/3/0/dim3" in ops
    cli_ops = {key: op for key, op in ops.items() if key.startswith("cli/")}
    assert sorted(cli_ops) == [f"cli/cli_docs/{seed}/0/{command}" for seed in (1, 2)
                               for command in ("classify", "coords", "decide")]
    assert all(set(op) == {"exit", "stderr", "stdout_sha256"} for op in cli_ops.values())
    assert ops["cli/cli_docs/1/0/classify"]["exit"] == 0
    assert len(ops["instance/cli_docs/2/0"]["sha256"]) == 64
    assert "sha256" in ops["instance/boundary/perturbed/1e-09/3/0"]
    assert any("answer" in op for op in ops.values()) and any("raised" in op for op in ops.values())
    assert ic.main(["dump", str(second), "--limit", "1"]) == 0
    assert ic.main(["compare", str(first), str(second)]) == 0

    key = next(k for k, op in ops.items() if "answer" in op)
    ops[key]["answer"] = "no" if ops[key]["answer"] == "yes" else "yes"
    second.write_text(json.dumps(ops))
    capsys.readouterr()
    assert ic.main(["compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    assert f"{key}: answer" in out and "1 differ" in out

    # a moved instance is named as its own line
    ops[key]["answer"] = json.loads(first.read_text())[key]["answer"]
    ops["instance/auto_highk/1/0"]["sha256"] = "0" * 64
    second.write_text(json.dumps(ops))
    capsys.readouterr()
    assert ic.main(["compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    assert "instance/auto_highk/1/0: sha256" in out and "1 differ" in out

    # a moved CLI stdout fails compare and passes values; a moved exit code fails both
    ops["instance/auto_highk/1/0"] = json.loads(first.read_text())["instance/auto_highk/1/0"]
    ops["cli/cli_docs/2/0/coords"]["stdout_sha256"] = "0" * 64
    second.write_text(json.dumps(ops))
    capsys.readouterr()
    assert ic.main(["compare", str(first), str(second)]) == 1
    assert "cli/cli_docs/2/0/coords: stdout_sha256" in capsys.readouterr().out
    assert ic.main(["values", str(first), str(second)]) == 0
    ops["cli/cli_docs/2/0/coords"]["exit"] += 1
    second.write_text(json.dumps(ops))
    capsys.readouterr()
    assert ic.main(["values", str(first), str(second)]) == 1
    assert "cli/cli_docs/2/0/coords: exit" in capsys.readouterr().out


def test_values_lets_only_condition_values_move(tmp_path, capsys):
    ic = load_script("identity_check")
    op = {"answer": "yes", "method": "DimKCrossOnly", "multiplicity": "one",
          "conditions": [["cr[0]", "real", True, [0.5, 1e-12]],
                         ["pair[0]", "conjugate pair", True, [3e-12, 0.0]]],
          "diagnostics": [], "residual_ok": True}
    raised = {"raised": "GenericityViolation", "message": "flags not in generic position"}
    before = {"w/1/0/cross": op, "w/1/1/fg": raised}
    moved = json.loads(json.dumps(before))
    moved["w/1/0/cross"]["conditions"][0][3][0] *= 1 + 2e-11
    moved["w/1/0/cross"]["conditions"][1][3][0] += 5e-13
    paths = [tmp_path / "before.json", tmp_path / "moved.json"]
    for path, ops in zip(paths, (before, moved)):
        path.write_text(json.dumps(ops))
    # a rounding-level value change: values passes and reports it, compare fails
    capsys.readouterr()
    assert ic.main(["values", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert "0 differ" in out and "cr[0]" in out and "pair[0]" in out
    above, below = ic.value_changes(before, moved)
    assert above[1:] == ("w/1/0/cross", "cr[0]") and 1e-11 < above[0] < 3e-11
    assert below[1:] == ("w/1/0/cross", "pair[0]") and 4e-13 < below[0] < 6e-13
    assert ic.main(["compare", *map(str, paths)]) == 1

    # a flipped pass flag, or a changed raise message, fails both
    for change in ("flag", "message"):
        other = json.loads(json.dumps(before))
        if change == "flag":
            other["w/1/0/cross"]["conditions"][1][2] = False
        else:
            other["w/1/1/fg"]["message"] = "base flags are not in generic position"
        paths[1].write_text(json.dumps(other))
        for command in ("values", "compare"):
            capsys.readouterr()
            assert ic.main([command, *map(str, paths)]) == 1
            assert "1 differ" in capsys.readouterr().out
