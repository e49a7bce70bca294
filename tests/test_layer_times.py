import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tree_against_itself():
    # the script loads the tree twice, under two package names, and times
    # every layer on each instance of the set
    tree = str(ROOT / "src" / "realform")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "layer_times.py"), tree, tree,
                          "--workload", "direct_allk", "--limit", "4", "--rounds", "1"],
                         capture_output=True, text=True, check=True).stdout
    rows = {line.split("`")[1]: line.split("|")[2:-1] for line in out.splitlines()
            if line.startswith("| `")}
    assert {"decide", "prepare", "eigensystems", "classify_spectra", "decide_direct",
            "decide_pgl2", "decide_pglk_fg", "decide_pglk_cross_only"} <= set(rows)
    for cells in rows.values():
        # before and after medians and p90s, then the two ratios
        values = [float(c) for c in cells]
        assert len(values) == 6 and all(v > 0 for v in values)


def test_k_keeps_only_instances_of_those_k():
    # --limit 14 spreads over direct_allk's k = 2-8, two instances each;
    # --k 3 --k 8 keeps the four of k 3 and 8
    tree = str(ROOT / "src" / "realform")
    cmd = [sys.executable, str(ROOT / "scripts" / "layer_times.py"), tree, tree,
           "--workload", "direct_allk", "--limit", "14", "--rounds", "1"]
    out = subprocess.run(cmd + ["--k", "3", "--k", "8"], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[0] == ("direct_allk, seed 1: 4 instances of k in [3, 8], "
                                   "1 interleaved rounds, ms per call")
    rows = {line.split("`")[1] for line in out.splitlines() if line.startswith("| `")}
    # dim2 handles k = 2 alone, and no instance of k = 2 is left
    assert "classify_spectra" in rows and "decide_pgl2" not in rows
    bad = subprocess.run(cmd + ["--k", "9"], capture_output=True, text=True)
    assert bad.returncode == 2 and "no instance of k in [9]" in bad.stderr
