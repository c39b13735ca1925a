"""The README's Python examples run as doctests against the public API."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block(index):
    parser = doctest.DocTestParser()
    test = parser.get_doctest(BLOCKS[index], {}, f"README.md[{index}]", str(README), 0)
    assert test.examples
    assert doctest.DocTestRunner().run(test).failed == 0
