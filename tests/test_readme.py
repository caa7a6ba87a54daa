"""README's library tour stays runnable."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md (Library tour)", "exec"), {})
