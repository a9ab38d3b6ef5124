"""Every module-level name of the package is read somewhere.

A function, class or assigned name at the top level of a module under
``src/`` must appear as a word in some ``.py`` file under ``src/``,
``tests/`` or ``perfbench/`` outside its own definition; a name nothing
reads is deleted rather than kept.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"__version__"}


def defined_names(tree):
    """(name, node) for each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node


def test_every_module_level_name_is_read():
    sources = {path: path.read_text() for part in ("src", "tests", "perfbench")
               for path in sorted((ROOT / part).rglob("*.py"))}
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = sources[path].splitlines()
        for name, node in defined_names(ast.parse(sources[path])):
            if name in EXEMPT:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            if not word.search(outside) and not any(word.search(text) for p, text in sources.items() if p != path):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert dead == []
