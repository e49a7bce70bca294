import re

from conftest import load_script


def test_routes_follow_k():
    rs = load_script("random_study")
    assert rs.methods(2) == ("dim2", "direct")
    assert rs.methods(3) == ("dim3", "cross", "direct")
    for k in range(4, 9):
        assert rs.methods(k) == ("fg", "cross", "direct")


def test_smoke_small_and_high_k(capsys):
    rs = load_script("random_study")
    assert rs.main(["--per-dim", "1", "--dims", "2", "3", "8"]) == 0
    out = capsys.readouterr().out
    assert [int(k) for k in re.findall(r"^k=(\d+):", out, re.M)] == [2, 3, 8]
    assert "'direct': 1" in out
    assert "wrong vs ground truth: 0" in out and "inconclusive: 0" in out


def test_inconclusive_is_neither_wrong_nor_a_disagreement():
    rs = load_script("random_study")
    assert rs.tally({"fg": "inconclusive", "direct": "yes"}, "no") == (True, False, True)
    assert rs.tally({"fg": "inconclusive", "cross": "yes", "direct": "yes"}, "yes") == \
        (True, False, False)
    assert rs.tally({"fg": "no", "direct": "yes"}, "yes") == (False, True, True)
    assert rs.tally({"fg": "inconclusive"}, "yes") == (True, False, False)
