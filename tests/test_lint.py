"""Module boundaries inside the crlab package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "crlab"


def test_no_private_names_imported_across_modules():
    # a module may use its own underscore names, never another crlab module's
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "crlab":
                continue
            found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_verify_takes_its_side_from_family():
    # the wall, side and order are decided once, by family.param_side
    tree = ast.parse((SRC / "verify.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert names.isdisjoint({"elliptic_type", "classify"})


def test_figures_build_no_representation():
    # figures evaluate closed forms on whole grids, never a FamilyRep per cell
    tree = ast.parse((SRC / "figures.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert names.isdisjoint({"FamilyRep", "FamilyParams"})
