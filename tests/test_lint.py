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
# verify.py's float literals in (0, 1e-2): none.  The exclusion passes decide
# from the sign of a finite margin, and the bi-tangency is proved
# (tests/test_bitangency_identities.py), so it has no gate
VERIFY_GATE_LITERALS = 0
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
    # the spinal-trace figure reads its torus's proved forms in closed form
    # (tests/test_tf_margin_identities.py): the column stage and TF's pass
    # are oracles (tests/oracles.py), so no module defines them, bisector
    # holds only the level function, and figures reads nothing of verify;
    # no module builds the (sigma, delta) grid of points, and the figures
    # never put torus points through the pointwise form kernel
    defined = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("column_forms", "_column_sinusoids", "passes")
    ]
    assert defined == []
    assert "core" not in imported_modules(SRC / "bisector.py")
    assert "verify" not in imported_modules(SRC / "figures.py")
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
    # the vertices are the ends of the column delta_v at every alpha2
    # (tests/test_vertex_identities.py): the sampled pass of tests/oracles.py,
    # against which TF's closed-form margin is held, takes that column and
    # no vertex point (torus_exclusion), and names no vertex row
    # (torus_pass); and no program module names the numeric vertex angles,
    # which serve the bi-tangency's tie test alone (tests/oracles.py,
    # tests/test_bitangency_identities.py)
    oracles = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    fns = {f.name: f for f in oracles.body if isinstance(f, ast.FunctionDef) and f.name in ("torus_exclusion", "torus_pass")}
    assert [a.arg for a in fns["torus_exclusion"].args.args] == ["R", "dv", "m", "space"]
    assert {n.id for n in ast.walk(fns["torus_exclusion"]) if isinstance(n, ast.Name)}.isdisjoint({"vertex_angles", "_proj_distances"})
    assert {n.id for n in ast.walk(fns["torus_pass"]) if isinstance(n, ast.Name)}.isdisjoint({"P_A", "P_B", "U_PA"})
    assert [p.name for p in sorted(SRC.glob("*.py")) if "vertex_angles" in p.read_text()] == []


def test_verify_imports_nothing_from_bisector():
    # TF's margin is the closed form family.exclusion_margin at every alpha2
    # (tests/test_tf_margin_identities.py): verify reads no torus column, so
    # it imports neither the bisector module nor any name from it
    assert "bisector" not in imported_modules(SRC / "verify.py")


def test_verify_forms_no_plus_torus():
    # the slice's involution carries the pass on the torus of J_0^+ and
    # J_1^+ onto TF's (tests/test_lc_identities.py): verify imports and
    # names no lift U p_V, so it neither builds that torus nor runs its pass
    tree = ast.parse((SRC / "verify.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "U_PV" not in imported | named


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
    # ufuncs: no numpy.random, and no numpy.linalg routine but norm.  The
    # trace rule that param_side calls is held to this with the whole of
    # scalar, where it lives (the rest of isometry keeps its own rules, for
    # classify).  No product goes through BLAS either: no @ and no matmul,
    # dot, vdot, einsum, inner or tensordot, so every number is a
    # fixed-order elementwise sum (`core.sesquilinear`) with
    # the same bits under every BLAS kernel; norm takes an axis, without
    # which it sums by BLAS dot.  Exempt is family.FamilyRep, whose group
    # words serve the classify command
    found = []
    names = ("scalar.py", "core.py", "family.py", "bisector.py", "visual.py", "verify.py", "figures.py", "csvfloat.py")
    trees = {name: ast.parse((SRC / name).read_text()) for name in names}
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


def test_verify_path_imports_no_numpy():
    # the modules that `import crlab.cli` loads, the package's own imports,
    # cli's and verify's module-level imports and, through their relative
    # imports, those of every module they load, import no numpy: a verify is
    # scalar code (`scalar`), and the commands that need arrays import them
    # when they run
    todo, seen, found = ["__init__", "cli", "verify"], set(), []
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        for node in _module_level_nodes(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [f"{mod}.py:{node.lineno}"] if node.module.split(".")[0] == "numpy" else []
            elif isinstance(node, ast.Import):
                found += [f"{mod}.py:{node.lineno}" for a in node.names if a.name.split(".")[0] == "numpy"]
    assert {"cli", "verify", "scalar", "report"} <= seen and found == []


def test_verify_runs_leave_numpy_unloaded(tmp_path):
    # numpy is not loaded by `import crlab.cli`, nor by a verify at an order,
    # at alpha2 1.3 (the band edge above alpha*) and a sweep with reports
    code = (
        "import sys, crlab.cli\n"
        "print('numpy' in sys.modules)\n"
        "for argv in (['--n', '9'], ['--alpha2', '1.3'], ['--sweep', '0.3:1.5:0.2', '--out', sys.argv[1]]):\n"
        "    assert crlab.cli.main(['verify', '--grid', '128'] + argv) == 0\n"
        "    print('numpy' in sys.modules)\n"
    )
    proc = run_fresh(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line in ("True", "False")] == ["False"] * 4
    assert len(list(tmp_path.iterdir())) == 6


# the package's exports, by home module
EXPORTS = {
    "core": ("HermitianSpace", "HVec", "Model", "inner", "siegel_model"),
    "reference": ("box_rows", "face_points"),
    "isometry": ("EllipticType", "Isometry", "IsometryKind", "classify", "eigen", "elliptic_type", "goldman_f", "verify_su21"),
    "family": ("ALPHA2_LIM", "FamilyParams", "FamilyRep", "alpha2_for_order", "param_side", "schwartz_point"),
    "visual": ("VisualChart",),
    "report": ("VerificationReport",),
    "verify": ("FaceFamily", "verify"),
}


def test_package_exports_are_their_home_modules_objects():
    import crlab

    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 25 and sorted(crlab.__all__) == sorted(names)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"crlab.{home}")
        for name in names:
            assert getattr(crlab, name) is getattr(module, name), (home, name)
    assert inspect.isfunction(crlab.verify)
    # hasattr catches AttributeError alone: any other error would propagate
    assert not hasattr(crlab, "no_such_export")


def test_package_import_loads_no_numpy_and_keeps_verify_the_function():
    # `import crlab` loads only the numpy-free exports; the rest load on
    # first read, and `crlab.verify` stays the function after the verify
    # module and the CLI are imported
    code = (
        "import inspect, sys, crlab\n"
        "print('numpy' in sys.modules)\n"
        "import crlab.verify, crlab.cli\n"
        "from crlab import verify\n"
        "print(inspect.isfunction(crlab.verify), verify is crlab.verify, 'numpy' in sys.modules)\n"
        "crlab.HVec\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0 and proc.stdout.split() == ["False", "True", "True", "False", "True"], proc.stderr


def test_import_of_the_cli_leaves_reference_unloaded():
    proc = run_fresh("import sys, crlab.cli; print('crlab.reference' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def test_unreached_defs_scope_a_functions_imports_to_it(tmp_path):
    # a def named only through an import inside a function is reached from
    # that function alone: the same name in another function reaches
    # nothing, and a def no function imports or names stays flagged
    (tmp_path / "cli.py").write_text(
        "def main():\n"
        "    from .figures import draw\n"
        "    from . import shapes\n"
        "    def inner():\n"
        "        return draw() + shapes.square()\n"
        "    return inner() + tail()\n"
        "\n"
        "def tail():\n"
        "    return circle()\n"
        "\n"
        "def unused():\n"
        "    from .shapes import circle\n"
        "    return circle()\n"
    )
    (tmp_path / "figures.py").write_text("def draw():\n    return 1\n\ndef dead():\n    return 2\n")
    (tmp_path / "shapes.py").write_text("def square():\n    return 3\n\ndef circle():\n    return 4\n")
    assert unreached_defs(tmp_path) == ["cli.unused", "figures.dead", "shapes.circle"]


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run `python -c code *argv` in a fresh interpreter that imports crlab
    from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)


def unreached_defs(src: pathlib.Path) -> list[str]:
    """"module.name" of each top-level def of the program modules under src
    that no walk from cli.main and the modules' top-level statements reaches.

    A reached def makes every name in it reached (a class: its whole body).
    A name is resolved in its module: the relative imports made in the
    functions around it (a command's `from .figures import FIGURES`, say),
    its own top-level defs, its module's relative imports `from .mod import
    name`, and `mod.name` for `from . import mod`.  An import inside a
    function binds its names in that function and the functions nested in
    it alone.  Import statements themselves reach nothing."""
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py")) if p.stem not in NOT_PROGRAM}
    defs, imported = {}, {}
    for mod, tree in trees.items():
        imported[mod] = _relative_imports(tree.body)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node

    def resolve(mod, local, name):
        if name in local:
            return local[name]
        return (mod, name) if (mod, name) in defs else imported[mod].get(name)

    def uses(mod, node, local=None):
        local = {} if local is None else local
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = {**local, **_relative_imports(_own_nodes(node))}
        if isinstance(node, ast.Name):
            target = resolve(mod, local, node.id)
            if target and target[1] is not None:
                yield target
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = resolve(mod, local, node.value.id)
            if target and target[1] is None:
                yield target[0], node.attr
        for child in ast.iter_child_nodes(node):
            yield from uses(mod, child, local)

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


def _relative_imports(statements) -> dict:
    """name -> (module, name) for each `from .module import name`, and name
    -> (module, None) for each `from . import module`, among statements."""
    found = {}
    for node in statements:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                found[a.asname or a.name] = (node.module, a.name) if node.module else (a.name, None)
    return found


def _own_nodes(fn):
    """The nodes of a function's body, at any depth, but not those of the
    functions, lambdas and classes defined in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)


def imported_modules(path: pathlib.Path) -> set[str]:
    """The last component of each module that the module at path imports,
    at any depth: "core" for `from .core import x`, `from . import core` and
    `import crlab.core`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            found.add(node.module.split(".")[-1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.split(".")[-1] for a in node.names}
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


def _module_level_nodes(tree):
    """The nodes a module runs when it is imported: all but those inside
    its functions and lambdas (a class body runs at import)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)


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
