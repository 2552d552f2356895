"""Static checks over the package source.

Every name a module imports is used in that module, every
`Class.attr` reference to a package class names an attribute that the
class, or a package class it derives from, defines, every package
module is imported by another package module or by the benchmark
pipeline, which drives the package from outside, and every module-level
function or class of the package, and every method of a package class
other than a dunder, is named somewhere besides its own definition: in
the package, a test or a benchmark script; and, but for a short
allow-list, named in the package or a benchmark script, so that no
definition is there for tests alone.  Every name
a module assigns at top level is read: by its own module, or by another
module, test or benchmark script through an import or an attribute.
Every defaulted parameter is passed by some call in the package, a test
or a benchmark script: a default nothing overrides is a knob nobody
turns.  Every console script that pyproject.toml declares imports and is
callable, so an installed command cannot point at a missing module.  No
module holds an assert statement: `python -O` strips them, so every
check of the package must be an explicit raise.  Every annotated field
of a package class is read as an attribute by the package or a
benchmark script, but for a short allow-list.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import quatforms

MODULES = sorted(Path(quatforms.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TESTS = sorted((ROOT / "tests").glob("*.py"))
PIPELINE = ROOT / "benchmarks" / "pipeline.py"
BENCHMARKS = sorted((ROOT / "benchmarks").rglob("*.py"))

# definitions that only tests name, each kept for an open ROADMAP item
PIPELINE_ORPHANS = [
    "numberfield.FieldCtx.class_of",  # ROADMAP item 1
    "polynomials.isolate_real_roots",  # ROADMAP item 1
]

# annotated fields that nothing in the package or the benchmark reads
UNREAD_FIELDS = [
    "eigen.Constituent.certified",  # ROADMAP item 8
    "eigen.EigenReport.level",  # the level the report describes
    "heckespace.DimensionReport.level",  # the level the report describes
]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def class_attributes(sources):
    """Class name -> the names its body binds and its base class names."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.add(stmt.name)
                for sub in ast.walk(stmt) if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else ():
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            out[node.name] = (names, bases)
    return out


def dangling_class_attributes(source, classes):
    def defines(cls, attr):
        names, bases = classes[cls]
        return attr in names or any(b in classes and defines(b, attr) for b in bases)

    return sorted(
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in classes
        and not node.attr.startswith("__")
        and not defines(node.value.id, node.attr)
    )


def imported_modules(source):
    """Names of the package modules that source imports, as `from .m`,
    `from . import m`, `from quatforms.m` or `import quatforms.m`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "quatforms":
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts and parts[0]:
                out.add(parts[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "quatforms" and len(parts) > 1:
                    out.add(parts[1])
    return out


def orphan_modules(sources, entry):
    """Modules of sources (name -> text), other than __init__, that no
    other module and not the entry text imports."""
    used = imported_modules(entry)
    for name, source in sources.items():
        used |= imported_modules(source) - {name}
    return sorted(set(sources) - used - {"__init__"})


def names_in(node):
    """Counts of the identifiers a syntax tree names: variables,
    attributes, imported names and the words of string constants other
    than docstrings, which reach names through getattr or setattr."""
    docstrings = {
        id(n.body[0].value)
        for n in ast.walk(node)
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and n.body and isinstance(n.body[0], ast.Expr)
        and isinstance(n.body[0].value, ast.Constant)
    }
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            out.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def orphan_definitions(modules, others):
    """module.name for each module-level function or class of modules
    (name -> text), and module.Class.name for each method of such a
    class other than a dunder, that nothing names outside its own
    definition: not its module, not another module, not one of the other
    texts."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = Counter()
    for tree in trees.values():
        total += names_in(tree)
    for source in others:
        total += names_in(ast.parse(source))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            if total[node.name] == names_in(node)[node.name]:
                out.append(f"{name}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if (isinstance(meth, defs[:2]) and not meth.name.startswith("__")
                            and total[meth.name] == names_in(meth)[meth.name]):
                        out.append(f"{name}.{node.name}.{meth.name}")
    return sorted(out)


def unread_module_names(modules, others):
    """module.name for each name that a module of modules (name -> text)
    assigns at top level and that nothing reads: its own module never
    loads it, and no module or other text imports it, reads it as an
    attribute or names it in a string."""
    elsewhere = Counter()
    for source in list(modules.values()) + list(others):
        tree = ast.parse(source)
        variables = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
        elsewhere += names_in(tree) - variables
    out = []
    for name, source in modules.items():
        tree = ast.parse(source)
        loaded = {
            n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for n in ast.walk(target):
                    if (isinstance(n, ast.Name) and not n.id.startswith("__")
                            and n.id not in loaded and not elsewhere[n.id]):
                        out.append(f"{name}.{n.id}")
    return sorted(out)


def unpassed_defaults(modules, others):
    """module.function(param) for each defaulted parameter of a function
    or method of modules (name -> text) that no call in modules or the
    other texts passes, by position or by name.  Calls are matched to
    functions by name alone, a constructor call to __init__; a call that
    unpacks *args or **kwargs passes everything, and the arguments of a
    method call start after self."""
    calls = {}
    for source in list(modules.values()) + list(others):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, star)
            )
    out = []
    for mod, source in modules.items():
        tree = ast.parse(source)
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            shift = int(cls is not None and not static)
            names = [cls.name, "__init__"] if cls and fn.name == "__init__" else [fn.name]
            seen = [c for n in names for c in calls.get(n, [])]
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            params = [(a.arg, i) for i, a in enumerate(pos) if i >= first]
            params += [
                (a.arg, None)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None
            ]
            for arg, i in params:
                if not any(
                    star or arg in kws or (i is not None and npos + shift > i)
                    for npos, kws, star in seen
                ):
                    where = f"{mod}.{cls.name}" if cls else mod
                    out.append(f"{where}.{fn.name}({arg})")
    return sorted(out)


def unread_fields(modules, readers):
    """module.Class.name for each annotated field of a class of modules
    (name -> text) that no text of readers reads as an attribute .name."""
    read = {
        n.attr
        for source in readers
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{name}.{node.name}.{stmt.target.id}"
        for name, source in modules.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    )


def assert_lines(source):
    """The line numbers of the assert statements in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def unresolved_scripts(scripts):
    """The names of the [project.scripts] entries (name -> "module:attr")
    whose target does not import or is not callable."""
    out = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            out.append(name)
            continue
        if not callable(obj):
            out.append(name)
    return sorted(out)


def test_scan_flags_an_unresolved_script():
    scripts = {
        "report": "quatforms.heckespace:dimension_report",
        "method": "quatforms.classset:ClassSet.norm_classes",
        "missing-module": "quatforms.no_such_module:main",
        "missing-attr": "quatforms.heckespace:no_such_function",
        "not-callable": "quatforms:__name__",
    }
    assert unresolved_scripts(scripts) == ["missing-attr", "missing-module", "not-callable"]


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert unresolved_scripts(scripts) == []


def test_scan_flags_an_assert():
    source = "def f(x):\n    assert x, 'no'\n    return x\nassert f(1)\n"
    assert assert_lines(source) == [2, 4]
    assert assert_lines("def f(x):\n    if not x:\n        raise ValueError\n") == []


def test_no_assert_statements():
    found = [(p.name, line) for p in MODULES for line in assert_lines(p.read_text())]
    assert found == []


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nprint(gcd)\n") == [
        (1, "os"), (2, "lcm"),
    ]


def test_scan_flags_a_dangling_class_attribute():
    source = (
        "class A:\n    k = 1\n    def f(self):\n        return A.g()\n"
        "class B(A):\n    x: int\n    def h(self):\n        return B.f, B.k, B.x, B.y\n"
    )
    assert dangling_class_attributes(source, class_attributes([source])) == [
        (4, "A.g"), (8, "B.y"),
    ]


def test_scan_flags_an_orphan_module():
    sources = {
        "__init__": "",
        "a": "from .b import f\n",
        "b": "from . import c\n",
        "c": "",
        "d": "from .d import g\n",
        "e": "import quatforms.a\n",
    }
    assert orphan_modules(sources, "from quatforms.e import h\n") == ["d"]
    assert orphan_modules(sources, "") == ["d", "e"]


def test_scan_flags_an_orphan_definition():
    modules = {
        "a": (
            "def used():\n    return helper()\n"
            "def helper():\n    \"\"\"Unlike Dead, called by used.\"\"\"\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Dead:\n    pass\n"
            "class Live:\n"
            "    def __eq__(self, other):\n        return True\n"
            "    def called(self):\n        return self.walk(0)\n"
            "    def walk(self, n):\n        return self.walk(n + 1)\n"
            "    def unread(self):\n        return self.unread\n"
            "    @property\n    def size(self):\n        return 1\n"
        ),
        "b": "def tested():\n    pass\ndef patched():\n    pass\n",
    }
    others = [
        "from a import Live, used\nfrom b import tested\n",
        "setattr(b, 'patched', None)\nprint(Live().called(), Live().size)\n",
    ]
    assert orphan_definitions(modules, others) == [
        "a.Dead", "a.Live.unread", "a.recursive",
    ]


def test_scan_flags_a_definition_only_a_test_names():
    modules = {"a": "def live():\n    return 1\ndef tested():\n    return 2\n"}
    pipeline = ["from a import live\nprint(live())\n"]
    test = "from a import tested\ndef test_tested():\n    assert tested() == 2\n"
    assert orphan_definitions(modules, pipeline) == ["a.tested"]
    assert orphan_definitions(modules, pipeline + [test]) == []


def test_scan_flags_an_unread_module_name():
    modules = {
        "a": (
            "import logging\n"
            "log = logging.getLogger(__name__)\n"
            "LIMIT = 3\n_USED = 1\nTABLE: dict = {}\nX, Y = 1, 2\n"
            "def f():\n    return _USED + Y\n"
        ),
        "b": "from a import TABLE\n",
    }
    assert unread_module_names(modules, ["import a\nprint(a.LIMIT)\n"]) == ["a.X", "a.log"]


def test_scan_flags_an_unpassed_default():
    modules = {
        "a": (
            "def f(x, y=1, *, z=2, w=3):\n    return x\n"
            "def g(x, y=1):\n    return f(x, 2, z=1)\n"
            "class C:\n    def __init__(self, n=0, m=1):\n        self.n = n\n"
            "    def h(self, k=0):\n        return k\n"
        ),
    }
    others = ["from a import C, g\nC(5).h(1)\ng(*[1, 2])\n"]
    assert unpassed_defaults(modules, others) == ["a.C.__init__(m)", "a.f(w)"]


def test_scan_flags_an_unread_field():
    modules = {
        "a": (
            "class P:\n    x: int\n    y: int = 0\n    z: int\n"
            "    def f(self):\n        self.z = 1\n        return self.x\n"
        ),
        "b": "class Q:\n    w: int\n",
    }
    readers = list(modules.values()) + ["from a import P\nprint(P().f(), q.w)\n"]
    assert unread_fields(modules, readers) == ["a.P.y", "a.P.z"]
    assert unread_fields(modules, modules.values()) == ["a.P.y", "a.P.z", "b.Q.w"]


def test_every_field_has_a_reader():
    # a field no reader needs is a field to delete; a stale allow-list
    # entry is flagged too
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for p in MODULES + BENCHMARKS]
    assert unread_fields(modules, readers) == UNREAD_FIELDS


def test_no_unpassed_defaults():
    others = [p.read_text() for p in TESTS]
    others += [p.read_text() for p in BENCHMARKS]
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unpassed_defaults(modules, others) == []


def test_no_unread_module_names():
    others = [p.read_text() for p in TESTS]
    others += [p.read_text() for p in BENCHMARKS]
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unread_module_names(modules, others) == []


def test_no_orphan_definitions():
    others = [p.read_text() for p in TESTS]
    others += [p.read_text() for p in BENCHMARKS]
    modules = {p.stem: p.read_text() for p in MODULES}
    assert orphan_definitions(modules, others) == []


def test_every_definition_has_a_pipeline_caller():
    # the package holds what the pipeline calls: a definition only tests
    # reach is flagged, and so is a stale allow-list entry
    modules = {p.stem: p.read_text() for p in MODULES}
    assert orphan_definitions(modules, [p.read_text() for p in BENCHMARKS]) == PIPELINE_ORPHANS


def test_field_layer_imports_only_integer_layers():
    # numberfield sits below the lattice, polynomial and quaternion
    # layers: it reaches only the integer arithmetic under it
    source = (Path(quatforms.__file__).parent / "numberfield.py").read_text()
    assert imported_modules(source) == {"arith", "intmat"}


def test_no_orphan_modules():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert orphan_modules(sources, PIPELINE.read_text()) == []


@pytest.mark.parametrize(
    "path", MODULES + TESTS,
    ids=lambda p: p.name if p in MODULES else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dangling_class_attributes(path):
    classes = class_attributes(p.read_text() for p in MODULES)
    assert dangling_class_attributes(path.read_text(), classes) == []
