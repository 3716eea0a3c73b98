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


def test_one_torus_grid_path():
    # forms on torus grids come from GiraudTorus.column_forms in closed
    # form; no module builds the (sigma, delta) grid of points, and the
    # figures never put torus points through the pointwise form kernel
    assert [p.name for p in sorted(SRC.glob("*.py")) if "sigma_delta_grid" in p.read_text()] == []
    found = []
    for name in ("figures.py",):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            torus_names = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and _builds_torus_points(node.value):
                    torus_names |= {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr not in ("norm_grid", "inner_grid"):
                    continue
                for arg in node.args:
                    if _builds_torus_points(arg) or (isinstance(arg, ast.Name) and arg.id in torus_names):
                        found.append(f"{name}:{node.lineno} {node.func.attr}")
    assert found == []


def test_verify_reads_no_torus_points():
    # TF and LC read the ball cells from their closed-form sigma-arcs, never
    # from sampled torus points
    tree = ast.parse((SRC / "verify.py").read_text())
    found = [
        f"verify.py:{n.lineno} {n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("ball", "ball_points")
    ]
    assert found == []


def test_verify_reads_no_sampled_silhouette():
    # GC takes its disks from visual.silhouette_circle in closed form, never
    # from spinal samples or their projection
    tree = ast.parse((SRC / "verify.py").read_text())
    banned = {"spinal_samples", "project_bisector"}
    found = [
        f"verify.py:{n.lineno} {name}"
        for n in ast.walk(tree)
        for name in (
            [a.name for a in n.names] if isinstance(n, ast.ImportFrom)
            else [n.id] if isinstance(n, ast.Name)
            else [n.attr] if isinstance(n, ast.Attribute)
            else []
        )
        if name in banned
    ]
    assert found == []


def test_verify_path_uses_no_random_numbers_and_no_lapack():
    # the modules that verify and the figures run keep to closed forms and
    # ufuncs: no numpy.random, and no numpy.linalg routine but norm
    # (isometry and family keep theirs, for classify and build_rep)
    found = []
    for name in ("core.py", "bisector.py", "visual.py", "verify.py", "figures.py", "csvfloat.py"):
        tree = ast.parse((SRC / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                mods = [_dotted(node)]
            else:
                continue
            for mod in mods:
                parts = mod.replace("numpy.", "np.", 1).split(".")
                if parts[:2] == ["np", "random"] or (parts[:2] == ["np", "linalg"] and parts[2:] not in ([], ["norm"])):
                    found.append(f"{name}:{node.lineno} {mod}")
    assert found == []


def test_csv_path_makes_no_object_arrays():
    # CSV fields are laid out in uint8 arrays; an object array (dtype=object,
    # astype(object)) would bring back one Python object per field
    found = []
    for name in ("figures.py", "csvfloat.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(node, ast.Call):
                continue
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + list(node.args)
            if any(_is_object_dtype(d) for d in dtypes):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _is_object_dtype(node) -> bool:
    # object, np.object_, or the dtype strings "O" and "object"
    if isinstance(node, ast.Constant):
        return node.value in ("O", "|O", "object")
    return (isinstance(node, ast.Name) and node.id == "object") or _dotted(node) in ("np.object_", "numpy.object_")


def _dotted(node) -> str:
    # a.b.c for a chain of attributes on a name, else ""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def _builds_torus_points(node) -> bool:
    # GiraudTorus.vectors builds torus points as arrays of 3-vectors
    return any(isinstance(n, ast.Attribute) and n.attr == "vectors" for n in ast.walk(node))
