"""Source-tree guard: every top-level function and class of the fedsvd
package has a reader in the package besides its own definition, so code that
only tests call lives in tests/, not in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedsvd"

# Entry points with no caller inside the package: a user-facing config
# writer, a user-facing CSV writer, and a diagnostic the tests call.
UNREFERENCED_OK = {("config", "dump"), ("data", "save_csv"), ("linalg", "condition_number")}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions(src: Path) -> set[tuple[str, str]]:
    """(module, name) of each top-level function or class under `src` whose
    name appears, as a bare name or an attribute, in no other top-level
    statement of any module there."""
    used: dict[str, set[int]] = {}  # name -> ids of the statements reading it
    defined = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, _DEFINITIONS):
                defined.append((path.stem, stmt.name, id(stmt)))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.setdefault(node.id, set()).add(id(stmt))
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add(id(stmt))
    return {(mod, name) for mod, name, own in defined if not used.get(name, set()) - {own}}


def test_every_top_level_definition_has_a_reader_in_the_package():
    assert unreferenced_definitions(SRC) == UNREFERENCED_OK


def test_guard_flags_a_definition_read_only_by_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1) if n else used()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\n\nclass Orphan:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == {("a", "recursive"), ("b", "Orphan")}
