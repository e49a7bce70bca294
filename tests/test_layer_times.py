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
