import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# ten lines hold code: import, class, both lines of x, def, the string
# statement after the docstring, return, "a", "b" and the closing
# parenthesis; the blank line inside the call holds no token
SYNTHETIC = '''"""A module docstring
over two lines."""

# a comment line
import os  # code with a comment


class A:
    """A class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """A function
        docstring."""
        "a string statement after the docstring"
        return os.path.join(
            "a",

            "b",
        )
'''


def test_counts_code_lines_of_a_synthetic_module():
    assert code_lines.code_lines(SYNTHETIC) == 10
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""only a docstring"""\n\n# and a comment\n') == 0
