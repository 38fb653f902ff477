"""The README's library example runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # each print line ends with "# <expected output> -- <note>" or "# <expected output>"
    expected = [
        line.split("#", 1)[1].split(" -- ")[0].strip() + "\n"
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, str(README), "exec"), {})
    assert stdout.getvalue() == "".join(expected)
