"""Source-tree guards: every top-level function and class of the fedsvd
package has a reader in the package besides its own definition, so code that
only tests call lives in tests/, not in src/; every field of a package
dataclass is read somewhere, so no record stores a value nobody reads; and
model.py has one forward/backward pass, which no other module repeats; the
benchmark's operations (perfbench/worker.py) still run on the package; and
no per-layer counter of BENCHMARK.json newly names a function that is gone."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fedsvd"

# Entry points with no caller inside the package: a diagnostic the tests call.
UNREFERENCED_OK = {("linalg", "condition_number")}

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


def unread_fields(src: Path, sources: list[Path]) -> set[tuple[str, str, str]]:
    """(module, class, field) of each field declared on a dataclass under
    `src` that none of `sources` reads as an attribute (`x.field`); a
    constructor keyword or an assignment is a write, not a read."""
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        (path.stem, cls.name, stmt.target.id)
        for path in sorted(src.glob("*.py"))
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        and any(ast.unparse(dec).startswith("dataclass") for dec in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id not in read
    }


def test_every_dataclass_field_is_read():
    assert unread_fields(SRC, sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))) == set()


def test_guard_flags_a_field_only_written(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Rec:\n"
        "    kept: int\n    passed: int\n    written: int\n\n\n"
        "class Plain:\n    ignored: int\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import Rec\n\n\ndef f(rec):\n    rec.written = rec.kept\n"
        "    return Rec(kept=1, passed=2, written=3)\n"
    )
    assert unread_fields(tmp_path, sorted(tmp_path.glob("*.py"))) == {("a", "Rec", "passed"), ("a", "Rec", "written")}


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


def test_no_module_but_model_runs_the_classifier():
    # the tanh and the softmax belong to model's one pass: a module that reads
    # either computes the classifier's forward or gradient a second time
    modules = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "model"
        and any(
            getattr(node, "id", getattr(node, "attr", None)) in {"softmax", "tanh"}
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    }
    assert modules == set()


@pytest.mark.parametrize("workload", ["headline_sweep", "wide_adapter", "verify_all"])
def test_benchmark_operations_run_and_pass_their_checks(workload, monkeypatch):
    # every call the benchmark makes into the package, at its tiny sizes: a
    # renamed function or a changed signature fails here, not as a failed run
    path = TESTS.parent / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker puts src/ first
    monkeypatch.setitem(sys.modules, spec.name, worker)  # its dataclass looks the module up
    spec.loader.exec_module(worker)
    ops = worker.verify_ops(0, True) if workload == "verify_all" else worker.training_ops(workload, 0, True)
    assert ops
    for op in ops:
        out = op.run()
        assert op.check(out) == []
        assert isinstance(op.digest(out), str)


# Per-layer counters of BENCHMARK.json that name functions deleted or moved
# to tests/; each reads 0 on every workload until the benchmark is refreshed.
KNOWN_STALE = {
    "analysis.grad_norm_identity_check", "analysis.noise_amplification_terms",
    "data.gen_synthetic", "data.partition_dirichlet",
    "federation.broadcast_layers", "federation.local_train",
    "linalg.eig_sym", "linalg.qr_thin", "linalg.spectral_norm",
    "model.forward", "model.loss", "model.per_sample_grads", "privacy.dp_sgd_step",
}


def test_no_benchmark_counter_newly_names_a_missing_function():
    # a deleted or renamed function that the benchmark counts fails here, so
    # the change that removes it says what replaces its counter; a refresh
    # that drops a stale counter needs no edit (a subset, not an equality)
    bench = json.loads((TESTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    counted = {
        metric["name"].rsplit(".", 1)[0]
        for metric in bench["per_layer"]
        if metric["name"].rsplit(".", 1)[1] in {"calls", "busy_s", "self_s"}
    }
    missing = {
        name for name in counted
        if not callable(getattr(importlib.import_module(f"fedsvd.{name.split('.')[0]}"), name.split(".")[1], None))
    }
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
