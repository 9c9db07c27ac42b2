"""Every module-level function of the package has a caller.

A public function counts as used when src/, scripts/ or bench/ refer to
it other than at its own `def`: as a name, an attribute or an import, or
as a string in bench/ (the bench tracer looks functions up by name).  A
private function counts as used when src/ refers to it outside its own
`def`.  Prose in docstrings and error messages does not count.  bench/
is only read here.
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


def _module_functions(private: bool) -> list[tuple[str, ast.FunctionDef]]:
    return [(path.name, node)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private]


def _names(tree: ast.AST, strings: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _references() -> set[str]:
    names = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            names |= _names(ast.parse(path.read_text()), strings=top == "bench")
    return names


def test_every_public_function_is_used():
    public = {node.name: mod for mod, node in _module_functions(private=False)}
    assert TEST_ONLY <= set(public), "exempt name no longer defined"
    used = _references()
    dead = sorted(f"{mod}:{name}" for name, mod in public.items()
                  if name not in used and name not in TEST_ONLY)
    assert not dead, f"public functions nothing calls: {dead}"


def test_every_private_function_is_used():
    # names each top-level statement of src/ refers to, keyed by the
    # statement's position, so a function's own body can be left out
    refs = {(path.name, node.lineno): _names(node)
            for path in sorted((ROOT / "src").rglob("*.py"))
            for node in ast.parse(path.read_text()).body}
    private = _module_functions(private=True)
    assert private, "no private functions found"
    dead = sorted(f"{mod}:{node.name}" for mod, node in private
                  if not any(node.name in names for key, names in refs.items()
                             if key != (mod, node.lineno)))
    assert not dead, f"private functions nothing in src/ calls: {dead}"
