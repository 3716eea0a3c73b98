"""Module boundaries inside the crlab package."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import tokenize
import typing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "crlab"
# modules outside the program: the package's re-exports, the paper's
# objects that no check computes with, and the visual-sphere chart, which
# no check or figure reads (U's action on it is proved, and the tests'
# oracles build their charts with it)
NOT_PROGRAM = ("__init__", "reference", "visual")
# CPython's parser doubles its token array as a module grows, and every
# process compiles crlab's modules anew (PYTHONDONTWRITEBYTECODE=1): a module
# past 8,192 tokens pays the next doubling, so each keeps 1,024 below it
MODULE_TOKEN_BUDGET = 7_168
# verify.py's float literals in (0, 1e-2): tf_check's bi-tangency gate 1e-3
# and _bitangency's vertex-location gate 1e-5, twice.  The exclusion passes
# read none: each decides from the sign of a finite margin
VERIFY_GATE_LITERALS = 3
# numpy's products, which can run through BLAS
BLAS_PRODUCTS = ("matmul", "dot", "vdot", "einsum", "inner", "tensordot")


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
    # through isometry's trace rule
    tree = ast.parse((SRC / "verify.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert names.isdisjoint({"elliptic_type", "classify"})


def test_verify_decides_no_proved_identity():
    # LC's symmetric triples and the involution are proved at every alpha2
    # (tests/test_lc_identities.py), and so are the tangency criterion, the
    # equal norms and the unbalanced pairs of FaceFamily's bisectors
    # (tests/test_face_family_identities.py), and the incidences and U's
    # action on the chart (tests/test_incidence_identities.py): verify
    # neither decides the trichotomy, builds the involution or a chart, nor
    # re-checks a precondition or an incidence, and its report holds only
    # TF, LC and GC
    tree = ast.parse((SRC / "verify.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert names.isdisjoint({"symmetric_kinds", "SymmetricKind", "involution_matrix"})
    assert names.isdisjoint({"tangencies", "bisector_kinds", "pair_kinds", "ExtorPairKind"})
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [m for node in imports for m in [getattr(node, "module", None) or ""] + [a.name for a in node.names]]
    assert [m for m in modules if m.split(".")[-1] == "visual"] == []
    from crlab.verify import verify

    assert sorted(verify(0.7, grid_n=64).to_dict()["checks"]) == ["gc", "lc", "tf"]


def test_verify_imports_no_scalar_form():
    # verify reads every decision from its side, point table and box rows:
    # the scalar Hermitian product, box product and HVec of single
    # points stay out of it
    tree = ast.parse((SRC / "verify.py").read_text())
    names = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("core", "reference")
        for a in node.names
    }
    assert names.isdisjoint({"inner", "box", "HVec"})


def test_figures_build_no_representation():
    # figures evaluate closed forms on whole grids, never a FamilyRep per cell
    tree = ast.parse((SRC / "figures.py").read_text())
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert names.isdisjoint({"FamilyRep", "FamilyParams"})


def test_one_torus_grid_path():
    # forms on torus grids come from bisector.column_forms in closed form,
    # called by the spinal-trace figure alone; no module builds the (sigma,
    # delta) grid of points, and the figures never put torus points through
    # the pointwise form kernel
    assert callers(SRC, "column_forms") == ["figures.figure_spinal_trace"]
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
                if node.func.attr != "form":
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


def test_exclusion_passes_take_no_vertex():
    # the vertices are the ends of the column family.delta_v at every alpha2
    # (tests/test_vertex_identities.py): torus_exclusion takes that column
    # and no vertex point, torus_pass names no vertex row, and the numeric
    # vertex angles serve the bi-tangency alone
    bisector = ast.parse((SRC / "bisector.py").read_text())
    (fn,) = [f for f in bisector.body if isinstance(f, ast.FunctionDef) and f.name == "torus_exclusion"]
    assert [a.arg for a in fn.args.args] == ["R", "dv", "m", "space"]
    assert {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}.isdisjoint({"vertex_angles", "_proj_distances"})
    verify = ast.parse((SRC / "verify.py").read_text())
    (prop,) = [
        f for c in verify.body if isinstance(c, ast.ClassDef) for f in c.body
        if isinstance(f, ast.FunctionDef) and f.name == "torus_pass"
    ]
    assert {n.id for n in ast.walk(prop) if isinstance(n, ast.Name)}.isdisjoint({"P_A", "P_B", "U_PA"})
    assert callers(SRC, "vertex_angles") == ["bisector.giraud_circle_tangents"]


def test_verify_reads_no_sampled_silhouette():
    # GC's disks are closed forms in cos(beta) or cosh(l)
    # (tests/test_gc_disk_identities.py), never spinal samples or their
    # projection
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


def test_disk_projection_draws_closed_forms():
    # the disk-projection figure reads the order n alone: its disks, marks
    # and turns are closed forms in n (family.elliptic_disks, proved in
    # tests/test_gc_disk_identities.py), so it names no face family, chart or
    # parameter; and the numeric silhouette pipeline it once sampled is in no
    # module of the package (tests/oracles.py keeps it)
    tree = ast.parse((SRC / "figures.py").read_text())
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "figure_disk_projection"]
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} | {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert names.isdisjoint({"FaceFamily", "chart", "alpha2_for_order", "param_side"})
    banned = {"silhouette_circles", "_null_circles", "_polar_basis", "circle_points", "ext_div"}
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in banned
    ]
    assert found == []


def test_figures_trace_and_mark_outside_loops():
    # a figure traces its level sets in one pass per grid shape and draws its
    # marks in one kernel call: figures.py calls neither _contour_segments nor
    # SvgCanvas.circles inside a for loop, a while loop or a comprehension,
    # and the per-mark SvgCanvas.circle is gone
    from crlab.figures import SvgCanvas

    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    tree = ast.parse((SRC / "figures.py").read_text())
    found = [
        f"figures.py:{call.lineno} {ast.unparse(call.func)}"
        for loop in ast.walk(tree)
        if isinstance(loop, loops)
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and (isinstance(call.func, ast.Name) and call.func.id == "_contour_segments"
             or isinstance(call.func, ast.Attribute) and call.func.attr in ("_contour_segments", "circles"))
    ]
    assert found == []
    assert not hasattr(SvgCanvas, "circle")


def test_gc_reads_only_the_side():
    # GC's margins are closed forms in cos(beta) or cosh(l)
    # (tests/test_gc_disk_identities.py): its two checks read no attribute of
    # the face family but side, hand the family to nothing, and call no
    # numpy function, so they take the same bits at every dispatch level
    tree = ast.parse((SRC / "verify.py").read_text())
    fns = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in ("gc_check_elliptic", "gc_check_loxodromic")]
    assert len(fns) == 2
    found = []
    for fn in fns:
        ff = fn.args.args[0].arg
        reads = [n for n in ast.walk(fn) if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == ff]
        found += [f"{fn.name}:{n.lineno} {ff}.{n.attr}" for n in reads if n.attr != "side"]
        read_ids = {id(n.value) for n in reads}
        found += [f"{fn.name}:{n.lineno} {ff}" for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == ff and id(n) not in read_ids]
        found += [
            f"{fn.name}:{n.lineno} {_dotted(n.func)}"
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and _dotted(n.func).split(".")[0] in ("np", "numpy")
        ]
    assert found == []


def test_verify_path_uses_no_random_numbers_and_no_lapack():
    # the modules that verify and the figures run keep to closed forms and
    # ufuncs: no numpy.random, and no numpy.linalg routine but norm.  Of
    # isometry only the trace rule that param_side calls is held to this
    # (the rest keeps its own, for classify).  No product goes through BLAS
    # either: no @ and no matmul, dot, vdot, einsum, inner or tensordot, so
    # every number is a fixed-order elementwise sum (`core.sesquilinear`,
    # `core.apply`) with the same bits under every BLAS kernel; norm takes
    # an axis, without which it sums by BLAS dot.  Exempt is
    # family.FamilyRep, whose group words serve the classify command
    found = []
    iso = ast.parse((SRC / "isometry.py").read_text())
    rule = [f for f in iso.body if isinstance(f, ast.FunctionDef) and f.name in ("trace_side", "rotation_turn")]
    assert len(rule) == 2
    trees = {name: ast.parse((SRC / name).read_text()) for name in ("core.py", "family.py", "bisector.py", "visual.py", "verify.py", "figures.py", "csvfloat.py")}
    trees["isometry.py"] = ast.Module(rule, [])
    for name, tree in trees.items():
        reps = [c for c in tree.body if name == "family.py" and isinstance(c, ast.ClassDef) and c.name == "FamilyRep"]
        exempt = {id(n) for c in reps for n in ast.walk(c)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append(f"{name}:{node.lineno} @")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in BLAS_PRODUCTS:
                if _dotted(node.func).split(".")[0] in ("np", "numpy") or node.func.attr == "dot":
                    found.append(f"{name}:{node.lineno} {node.func.attr}")
            elif isinstance(node, ast.Call) and _dotted(node.func) in ("np.linalg.norm", "numpy.linalg.norm"):
                if "axis" not in [k.arg for k in node.keywords] and len(node.args) < 3:
                    found.append(f"{name}:{node.lineno} norm without an axis")
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


def test_every_top_level_def_is_reached_from_the_program():
    # each top-level function and class of the program modules is named, at
    # least indirectly, by cli.main or by a module's top-level statements;
    # anything else belongs in crlab.reference or tests/oracles.py
    assert unreached_defs(SRC) == []


def test_every_method_is_named_by_the_program():
    # each method of a class in the program modules, dunders aside, is named
    # as an attribute somewhere in the program outside its own body; a
    # helper that only the tests run belongs in tests/oracles.py
    assert unnamed_methods(SRC) == []


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation string of the program
    # modules in its module: a name used only in an annotation is imported
    assert unresolved_annotations(SRC) == []


def test_verify_gate_literals_do_not_grow():
    # float literals in (0, 1e-2) in verify.py are its thresholds; one table
    # of named gates derived from tol should only lower this count
    tree = ast.parse((SRC / "verify.py").read_text())
    small = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float and 0.0 < n.value < 1e-2]
    assert len(small) <= VERIFY_GATE_LITERALS, small


def test_every_module_fits_the_parser_token_budget():
    sizes = {path.name: module_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in sizes.items() if n > MODULE_TOKEN_BUDGET} == {}


def test_relative_approx_names_its_absolute_bound():
    # pytest.approx(x, rel=r) keeps its default abs=1e-12, which passes any
    # value below 1e-12 whatever r says: every relative comparison in the
    # tests names abs, 0 where r alone is meant
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and _dotted(node.func) == "pytest.approx"
        and {"rel"} <= {k.arg for k in node.keywords} and "abs" not in {k.arg for k in node.keywords}
    ]
    assert found == []


def test_no_program_module_imports_reference():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in NOT_PROGRAM:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            if any(mod.split(".")[-1] == "reference" for mod in mods):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_of_the_cli_leaves_reference_unloaded():
    code = "import sys, crlab.cli; print('crlab.reference' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def unreached_defs(src: pathlib.Path) -> list[str]:
    """"module.name" of each top-level def of the program modules under src
    that no walk from cli.main and the modules' top-level statements reaches.

    A reached def makes every name in it reached (a class: its whole body).
    A name is resolved in its module: its own top-level defs, its relative
    imports `from .mod import name`, and `mod.name` for `from . import mod`.
    Import statements themselves reach nothing."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py")) if p.stem not in NOT_PROGRAM}
    defs, imported = {}, {}
    for mod, tree in trees.items():
        imported[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imported[mod][a.asname or a.name] = (node.module, a.name) if node.module else (a.name, None)

    def uses(mod, node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                target = (mod, n.id) if (mod, n.id) in defs else imported[mod].get(n.id)
                if target and target[1] is not None:
                    yield target
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                target = imported[mod].get(n.value.id)
                if target and target[1] is None:
                    yield target[0], n.attr

    todo = [("cli", "main")]
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                todo += uses(mod, node)
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += uses(key[0], defs[key])
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in reached)


def callers(src: pathlib.Path, name: str) -> list[str]:
    """"module.def" of each top-level function and "module.Class.method" of
    each method of the program modules under src that names `name`, as a
    name or an attribute, outside a def of that name."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem in NOT_PROGRAM:
            continue
        tree = ast.parse(path.read_text(), str(path))
        defs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body if isinstance(f, ast.FunctionDef)]
        for qual, fn in defs:
            named = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} | {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
            if fn.name != name and name in named:
                found.append(f"{path.stem}.{qual}")
    return found


def unnamed_methods(src: pathlib.Path) -> list[str]:
    """"Class.method" of each method of the top-level classes of the program
    modules under src that no `.method` attribute in those modules names,
    outside the method's own body; dunder methods are left out."""
    trees = [ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py")) if p.stem not in NOT_PROGRAM]
    attrs = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    found = []
    for cls in (n for tree in trees for n in tree.body if isinstance(n, ast.ClassDef)):
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            own = {id(n) for n in ast.walk(fn)}
            if not any(a.attr == fn.name and id(a) not in own for a in attrs):
                found.append(f"{cls.name}.{fn.name}")
    return found


def unresolved_annotations(src: pathlib.Path) -> list[str]:
    """"module.name: error" of each class, function and method defined in
    the program modules under src, properties and cached properties
    included, whose annotations `typing.get_type_hints` cannot resolve."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem in NOT_PROGRAM:
            continue
        mod = importlib.import_module(f"crlab.{path.stem}")
        own = [(n, v) for n, v in vars(mod).items() if getattr(v, "__module__", None) == mod.__name__]
        objs = [(n, v) for n, v in own if inspect.isfunction(v) or inspect.isclass(v)]
        for cname, cls in [(n, v) for n, v in objs if inspect.isclass(v)]:
            for n, v in vars(cls).items():
                f = getattr(v, "fget", None) or getattr(v, "func", None) or getattr(v, "__func__", None) or v
                if inspect.isfunction(f):
                    objs.append((f"{cname}.{n}", f))
        for name, obj in objs:
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                found.append(f"{path.stem}.{name}: {exc}")
    return found


def module_tokens(path: pathlib.Path) -> int:
    """The tokens of a module as the parser sees them: tokenize's output
    without comments, non-logical newlines and the encoding marker."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with open(path, "rb") as fh:
        return sum(t.type not in skip for t in tokenize.tokenize(fh.readline))


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
    # a `.vectors` attribute is the shape of a torus-point builder (no
    # program module has one; the tests' builder is oracles.torus_vectors)
    return any(isinstance(n, ast.Attribute) and n.attr == "vectors" for n in ast.walk(node))
