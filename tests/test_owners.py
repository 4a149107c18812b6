"""Each decision the package makes in several places has one owner module:
only `diffcore` reads BLOCK_ELEMENTS (through `row_blocks`), only
`protocol` turns a seed into a Generator (through `rng_for`), only
`objective` spells the logged loss parts (through `LOSS_COLUMNS`), and only
`protocol` spells the transfer metrics (through `METRICS`). And every public
function or class of the package has a caller in the package or in
perfbench, so no helper lives on for its own tests alone."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "cdsl_lab"
PERFBENCH = REPO / "perfbench"


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a tree reads, bare or as a module attribute, outside `skip`."""
    used, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return used


def names_used(path: Path) -> set[str]:
    """Every name a module reads, bare or as a module attribute."""
    return names_read(ast.parse(path.read_text()))


@pytest.mark.parametrize("name,owner", [("BLOCK_ELEMENTS", "diffcore"),
                                        ("default_rng", "protocol")])
def test_one_module_owns_each_decision(name, owner):
    users = sorted(p.stem for p in SRC.glob("*.py") if name in names_used(p))
    assert users == [owner]


def strings(path: Path) -> set[str]:
    """Every string constant in a module."""
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_only_objective_spells_the_loss_parts():
    parts = {"ce", "pca", "dis", "total"}
    assert sorted(p.stem for p in SRC.glob("*.py") if parts & strings(p)) == ["objective"]


def test_only_protocol_spells_the_transfer_metrics():
    metrics = {"tdg", "tda", "fa", "tdg_avg", "tda_avg", "fa_avg"}
    assert sorted(p.stem for p in SRC.glob("*.py") if metrics & strings(p)) == ["protocol"]


# public names that no module calls: the acceptance gate's entry points, and
# the tests' reference for the bitmap gather layout
CALLED_FROM_TESTS_ONLY = {("labeler", "t2pl"), ("objective", "source_pca_loss"),
                          ("protocol", "run_stationary"), ("protocol", "ablate"),
                          ("randmix", "conv_matrix")}


def test_every_public_name_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text())
             for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    uncalled = set()
    for path in SRC.glob("*.py"):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in names_read(tree, node if other == path else None)
                                for other, tree in trees.items())):
                uncalled.add((path.stem, node.name))
    assert uncalled == CALLED_FROM_TESTS_ONLY
