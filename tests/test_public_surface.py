"""Every public name earns its place.

A name in ``dyadicrep.__all__`` must be read by some library module other
than ``__init__.py`` (an ``ast.Name`` load or an attribute access), or be
shown in a ``>>>`` line of the README's Python examples, which
``test_readme.py`` runs. A name that only tests reach belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

import dyadicrep

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyadicrep"


def _library_reads() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_example_words() -> set[str]:
    blocks = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    return {
        word
        for block in blocks
        for line in block.splitlines()
        if line.lstrip().startswith(">>>")
        for word in re.findall(r"\w+", line)
    }


def test_every_export_has_a_library_reader_or_a_readme_example():
    used = _library_reads() | _readme_example_words()
    exported = [name for name in dyadicrep.__all__ if name != "__version__"]
    unused = sorted(name for name in exported if name not in used)
    assert not unused, f"exported but read by no library module or README example: {unused}"
