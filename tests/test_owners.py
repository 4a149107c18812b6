"""Each decision the package makes in several places has one owner module:
only `diffcore` reads BLOCK_ELEMENTS (through `row_blocks`), only
`protocol` turns a seed into a Generator (through `rng_for`), only
`objective` spells the logged loss parts (through `LOSS_COLUMNS`), and only
`protocol` spells the transfer metrics (through `METRICS`)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cdsl_lab"


def names_used(path: Path) -> set[str]:
    """Every name a module reads, bare or as a module attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


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
