"""Every public module-level function of the package has a caller.

A function counts as used when src/, scripts/ or bench/ refer to it
other than at its own `def`: as a name, an attribute or an import, or as
a string in bench/ (the bench tracer looks functions up by name).  Prose
in docstrings and error messages does not count.  bench/ is only read
here.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "racbem"

# kept on purpose with only test callers: independent evaluators,
# references the tests check the pipeline against, and the constructions
# the acceptance tests import
TEST_ONLY = {
    "qsp_value", "exact_success_prob", "validate", "circuit_from_text",
    "condition_bound", "project_on_interval", "to_phi",
    "objective", "gradient", "build_hracbem", "build_canonical_hracbem",
    "block_of",
}


def _public_functions() -> dict[str, str]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = path.name
    return found


def _references() -> set[str]:
    names = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif top == "bench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_public_function_is_used():
    public = _public_functions()
    assert TEST_ONLY <= set(public), "exempt name no longer defined"
    used = _references()
    dead = sorted(f"{mod}:{name}" for name, mod in public.items()
                  if name not in used and name not in TEST_ONLY)
    assert not dead, f"public functions nothing calls: {dead}"
