"""Every top-level function and class of the library has a reader.

A name defined at the top of a module in `src/heilbronn/` must be referenced
by word in a `.py` file under `src/heilbronn/`, `scripts/` or `perfbench/`:
by the CLI, another module, a script or the benchmark.  Its own definition
and the re-export in `heilbronn/__init__.py` do not count, nor do the tests,
so a name that only its unit tests call fails here.  Delete such a name, or
give it a reader and say why in README's "Retired API" list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heilbronn"
READERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]

# names kept without a reader, each with the reason
ALLOWED: dict[str, str] = {}


def _definitions():
    """(module path, name) of every top-level def and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name


def test_every_top_level_name_is_reached():
    sources = {p: p.read_text() for d in READERS for p in sorted(d.rglob("*.py"))
               if p != PACKAGE / "__init__.py"}
    unreached = []
    for module, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        uses = sum(len(word.findall(text)) for text in sources.values())
        if uses - (module in sources) == 0 and name not in ALLOWED:
            unreached.append(f"{module.name}:{name}")
    assert unreached == []
