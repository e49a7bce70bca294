import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity_check.py"


def load_script():
    spec = importlib.util.spec_from_file_location("identity_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_and_compare(tmp_path, capsys):
    ic = load_script()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert ic.main(["dump", str(first), "--limit", "1"]) == 0
    ops = json.loads(first.read_text())
    # one instance of each seed set of each workload, under every method
    assert len(ops) == 3 * 2 * 6
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
