"""tools/code_lines.py, which the line counts of the change log rest on,
against hand-counted samples."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


@pytest.mark.parametrize(
    "source, count",
    [
        ('"""A module docstring\nover two lines."""\n# a comment\n\n# another\n', 0),
        ("x = 1  # note\n", 1),
        ('def f():\n    """One docstring\n    over two lines."""\n    return 1\n', 2),
        ('x = """not a docstring,\nso every line\ncounts"""\n', 3),
    ],
    ids=["docstring-and-comments", "trailing-comment", "function-docstring", "multi-line-string"],
)
def test_code_lines_of_a_sample(source, count, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert code_lines.code_lines(path) == count


def test_a_directory_without_modules_is_refused(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: no Python modules in {tmp_path}")
