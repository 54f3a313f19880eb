"""Every name a module of the package imports is used in that module.

An import left behind by a refactor is a dead dependency that every process
loading the module still executes; this check finds one with the standard
library alone.  A statement marked ``noqa: F401`` keeps an import on purpose
(a name served from a second module, or one a benchmark wraps there); the
package's ``__init__`` imports are the names it serves.
"""

import ast
import os

import pytest

import awrlab

PACKAGE = os.path.dirname(awrlab.__file__)
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads,
    leaving out ``from __future__`` and statements marked ``noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_leftovers():
    # an unused name, from a plain import, a from-import and an aliased one,
    # is reported; a used one, a marked line and __future__ are not
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from functools import partial, lru_cache\n"
        "from .rootfind import bisect_decreasing  # noqa: F401\n"
        "from .rootfind import (\n"
        "    invert_fan,\n"
        ")\n"
        "x = lru_cache(math.floor)\n"
    )
    assert unused_imports(source) == ["line 6: invert_fan", "line 3: np", "line 4: partial"]
