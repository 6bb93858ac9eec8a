"""README.md's Python examples run against the current API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


def test_python_examples_run():
    for block in PYTHON_BLOCKS:
        exec(compile(block, str(README), "exec"), {})


def test_layout_names_every_module():
    layout = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    package = README.parent / "src" / "aircomp"
    modules = {path.name for path in package.glob("*.py")} - {"__init__.py"}
    assert modules - named == set()
