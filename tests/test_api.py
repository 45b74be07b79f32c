"""The public API: every name a module exports exists and the set of
them is pinned, the package re-exports only exported names, and exactly
the pinned ones; no module
imports a name it never reads; the README's Library example runs and
prints what its comments say."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import apobs

MODULES = sorted(m.name for m in pkgutil.iter_modules(apobs.__path__))
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# module -> the names ``apobs/__init__.py`` imports from it
PACKAGE_NAMES = {
    "ltl": {"parse_ltl", "to_nnf", "subformulas", "atoms", "formula_str",
            "LtlSyntaxError", "UnsupportedOperatorError"},
    "observations": {"OBS", "consistency", "ChoppingError", "UndefinedSlice",
                     "MultiChange"},
    "automata": {"build_gba", "trim", "minimize", "degeneralize",
                 "translate", "automaton_to_dot"},
    "abstraction": {"SystemSpec", "Mode", "SymbolicModel", "gamma",
                    "validate_tau", "build_symbolic_model",
                    "simulate_trajectory", "system_spec_to_json",
                    "system_spec_from_json", "TauValidationError",
                    "OutOfDomainError"},
    "game": {"build_game", "solve_buchi", "verify", "Report",
             "PipelineError", "report_to_json"},
    "scenarios": {"drone_spec"},
}

# module -> its ``__all__``
MODULE_NAMES = {
    "abstraction": {"Mode", "SystemSpec", "SymbolicModel",
                    "TauValidationError", "OutOfDomainError", "gamma",
                    "build_symbolic_model", "validate_tau",
                    "simulate_trajectory", "system_spec_to_json",
                    "system_spec_from_json", "region_contains",
                    "box_vs_region", "is_run_of", "SINK"},
    "automata": {"Q0", "Automaton", "build_gba", "trim",
                 "restrict_valid_letters", "minimize", "degeneralize",
                 "translate", "automaton_to_dot"},
    "cli": {"main", "BENCH_FORMULAS", "PAPER_REFERENCE"},
    "game": {"BuchiGame", "SolveResult", "Report", "PipelineError",
             "build_game", "solve_buchi", "verify", "solve_result_to_json",
             "report_to_json", "game_to_json"},
    "ltl": {"Formula", "TrueF", "FalseF", "Atom", "Not", "And", "Or",
            "Until", "Release", "Next", "LtlSyntaxError",
            "UnsupportedOperatorError", "parse_ltl", "to_nnf",
            "subformulas", "atoms", "formula_str"},
    "observations": {"OBS", "NEG", "consistency", "letter_code", "letter_of",
                     "ChoppingError", "UndefinedSlice", "MultiChange"},
    "scenarios": {"drone_spec"},
}


def test_modules_found():
    assert {"abstraction", "automata", "game", "ltl"} <= set(MODULES)


def test_module_names_pinned():
    """A name that joins or leaves a module's ``__all__`` is a deliberate
    edit of MODULE_NAMES."""
    exported = {name: set(importlib.import_module(f"apobs.{name}").__all__)
                for name in MODULES}
    assert exported == MODULE_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"apobs.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(apobs.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        module = importlib.import_module(f"apobs.{node.module}")
        names = [alias.name for alias in node.names]
        assert [n for n in names if n not in module.__all__] == [], \
            node.module


def test_package_names_pinned():
    """A name that joins or leaves the package's imports is a deliberate
    edit of PACKAGE_NAMES."""
    tree = ast.parse(Path(apobs.__file__).read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert imported == PACKAGE_NAMES


def unused_imports(path):
    """The names a module imports and never reads, skipping ``__future__``
    imports and the names listed in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix() for d in ("src/apobs", "tests")
    for p in (ROOT / d).glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports(ROOT / path) == []


def test_readme_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    verdict, _, initial, w0 = capsys.readouterr().out.splitlines()
    assert verdict == "VERIFIED"
    assert initial == "('O', (-10, 13), ('q0', 1))"
    assert w0 == "589"
    # the comments state the same values
    for comment in ('# "VERIFIED"', f"# {initial}", f"# {w0} ids in W0"):
        assert comment in code
