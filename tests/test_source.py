"""Source-tree guards: every top-level function and class of the fedsvd
package has a reader in the package besides its own definition, so code that
only tests call lives in tests/, not in src/; and model.py has one
forward/backward pass."""

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


def readers(path: Path, name: str) -> set[str]:
    """The top-level definitions in the module at `path`, other than `name`'s
    own, that read `name` as a bare name or an attribute."""
    return {
        stmt.name
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, _DEFINITIONS) and stmt.name != name
        and any(getattr(node, "id", getattr(node, "attr", None)) == name for node in ast.walk(stmt))
    }


def test_model_has_one_forward_backward_pass():
    # the tanh runs in _forward alone and the softmax in _backward alone (its
    # exp in _shifted_exp, which the loss shares): a second pass, e.g. one
    # that reuses work arrays beside the first, shows here
    path = SRC / "model.py"
    assert readers(path, "tanh") == {"_forward"}
    assert readers(path, "softmax") == {"_backward"}
    assert readers(path, "exp") == {"_shifted_exp"}
