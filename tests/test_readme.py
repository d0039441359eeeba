"""README's Library example runs as written and prints what it says."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})  # ends with `assert report.passed`
    assert out.getvalue().splitlines() == ["[0.5 2.5]", "0.25"]
