"""Every module-level function of the package has a caller, and every
module-level constant a reader.

A public function counts as used when src/, scripts/ or bench/ refer to
it other than at its own `def`: as a name, an attribute or an import.  A
string does not count, so a name that only the bench tracer's tables
list keeps nothing alive.  A private function counts as used when src/
refers to it outside its own `def`.  An UPPER_CASE module-level constant
counts as read when src/, scripts/ or bench/ refer to it outside the
statement that assigns it.  Prose in docstrings and error messages does
not count.  bench/ is only read here.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "racbem"

# kept on purpose with only test callers, each with its reason
TEST_ONLY = {
    "qsp_value": "independent evaluator of the phase product",
    "exact_success_prob": "dense reference for the sampled success probability",
    "validate": "coupling-map check the generator tests apply",
    "circuit_from_text": "inverse of circuit_to_text, for the round trip",
    "condition_bound": "the bound the quadratic targeting is checked against",
    "project_on_interval": "truncated expansion the minimax fit is compared with",
    "to_phi": "inverse of to_varphi",
    "objective": "the residual L the solver drives to 0, checked by an independent evaluator",
    "gradient": "the loss gradient, checked against finite differences",
    "build_hracbem": "the phased Hermitian construction the acceptance tests import",
    "build_canonical_hracbem": "the Clifford+T construction the acceptance tests import",
    "block_of": "the encoded matrix of a built circuit",
    "circuit_unitary": "dense reference the fused kernel is checked against",
    "phases_for_quadratic": "closed form that the build_hracbem tests realize h with",
    "u2": "gate constructor, one of the gate kinds",
}


def _module_functions(private: bool) -> list[tuple[str, ast.FunctionDef]]:
    return [(path.name, node)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private]


def _names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _references() -> set[str]:
    names = set()
    for top in ("src", "scripts", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            names |= _names(ast.parse(path.read_text()))
    return names


def _statement_references(tops: tuple[str, ...]) -> dict[tuple[pathlib.Path, int], set[str]]:
    """The names each top-level statement under the given directories
    refers to, keyed by (file, line), so a definition can be left out."""
    return {(path, node.lineno): _names(node)
            for top in tops
            for path in sorted((ROOT / top).rglob("*.py"))
            for node in ast.parse(path.read_text()).body}


def test_every_public_function_is_used():
    public = {node.name: mod for mod, node in _module_functions(private=False)}
    assert set(TEST_ONLY) <= set(public), "exempt name no longer defined"
    used = _references()
    dead = sorted(f"{mod}:{name}" for name, mod in public.items()
                  if name not in used and name not in TEST_ONLY)
    assert not dead, f"public functions nothing calls: {dead}"


def test_every_private_function_is_used():
    refs = _statement_references(("src",))
    private = _module_functions(private=True)
    assert private, "no private functions found"
    dead = sorted(f"{mod}:{node.name}" for mod, node in private
                  if not any(node.name in names for key, names in refs.items()
                             if key != (PACKAGE / mod, node.lineno)))
    assert not dead, f"private functions nothing in src/ calls: {dead}"


def test_every_module_constant_is_read():
    constants = [(path, name.id, node.lineno)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 for name in ast.walk(target)
                 if isinstance(name, ast.Name) and name.id.isupper()]
    assert constants, "no module constants found"
    refs = _statement_references(("src", "scripts", "bench"))
    dead = sorted(f"{path.name}:{name}" for path, name, line in constants
                  if not any(name in names for key, names in refs.items() if key != (path, line)))
    assert not dead, f"module constants nothing reads: {dead}"
