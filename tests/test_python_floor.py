"""The package's sources parse at the Python floor pyproject.toml declares."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_declared_python_floor():
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    sources = sorted((ROOT / "src" / "fmlab").glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
