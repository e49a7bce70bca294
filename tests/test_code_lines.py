from conftest import load_script

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring
        over two lines."""
        text = """a multi-line string
        that is not a docstring"""
        return math.hypot(self.x, self.y), text
'''


def test_counts_code_lines_only(capsys):
    cl = load_script("code_lines")
    # import, class, def, the two lines of the string assignment, return
    assert cl.code_lines(SAMPLE) == 6
    assert cl.main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split()[1] == "total"
    assert int(rows[-1].split()[0]) == sum(int(row.split()[0]) for row in rows[:-1])
    assert any(row.split()[1] == "decide.py" for row in rows)
