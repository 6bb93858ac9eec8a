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
