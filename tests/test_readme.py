"""The README's Library example, run as written."""

import contextlib
import io
import os

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_block() -> str:
    """The first python block under the README's "## Library" heading."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_example_prints_what_its_comments_say():
    block = _library_block()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert out.getvalue().splitlines() == [line.rsplit("  # ", 1)[1] for line in prints]
