import ast
import re
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import hahnpoly

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(hahnpoly.__file__).parent.glob("*.py"))
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _assert_lines(paths) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_library_has_no_assert():
    # python -O strips assert statements, so a check written as one disappears
    found = _assert_lines(SOURCES)
    assert SOURCES and not found, found


def test_demos_have_no_assert():
    # a demo that confirms a result under python -O must have checked it
    found = _assert_lines(DEMOS)
    assert DEMOS and not found, found


def test_all_exports_no_modules():
    modules = [name for name in hahnpoly.__all__ if isinstance(getattr(hahnpoly, name), ModuleType)]
    assert hahnpoly.__all__ and not modules, modules


def _uses_function_cache(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in ("lru_cache", "cache") for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_library_has_no_function_cache():
    # a module-level cache keyed on frames grows for the life of the process
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _uses_function_cache(node)
    ]
    assert SOURCES and not found, found


def _layout_modules(readme: str) -> list[str]:
    """The src/hahnpoly modules that the bullets of the README's "## Layout" section name."""
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `src/hahnpoly/([^`]+\.py)`", section, flags=re.MULTILINE)


def test_layout_lint_detects():
    readme = ("# x\n\n## Layout\n\n- `src/hahnpoly/a.py` — a\n  `src/hahnpoly/b.py`\n"
              "- `src/hahnpoly/c.py`\n\n## Next\n- `src/hahnpoly/d.py`")
    assert _layout_modules(readme) == ["a.py", "c.py"]


def test_readme_layout_names_every_module():
    # a module added or deleted without its Layout line leaves the README out of date
    assert sorted(_layout_modules((REPO / "README.md").read_text())) == [path.name for path in SOURCES]


def test_cross_check_routes_not_exported():
    removed = {"check_admissible", "hankel_determinant", "from_y_basis", "y_basis",
               "op_D_monomial", "hahn_number", "mixed_moments", "leibniz_expand",
               "verify_rodrigues", "RodriguesWitness", "phi_product"}
    assert not removed & set(hahnpoly.__all__)


def _separate_frame(tree, names) -> list[str]:
    """Module-level functions in names that take a MomentFunctional-annotated parameter and a frame parameter."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            functional = any(arg.annotation is not None
                             and re.search(r"\bMomentFunctional\b", ast.unparse(arg.annotation)) for arg in args)
            if functional and any(arg.arg == "frame" for arg in args):
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_separate_frame_lint_detects():
    code = ("def f(pear, frame: HahnFrame, u: MomentFunctional, n): pass\n"
            "def g(u: 'Optional[MomentFunctional]', *, frame=None): pass\n"
            "def h(pear, u: MomentFunctional, n): pass\n"
            "def k(table, frame: HahnFrame): pass\n"
            "def _private(u: MomentFunctional, frame): pass\n")
    assert _separate_frame(ast.parse(code), {"f", "g", "h", "k"}) == ["f (line 1)", "g (line 2)"]


def test_functional_api_takes_no_separate_frame():
    # a functional carries its frame; a second frame argument can silently disagree with it
    found = [
        f"{path.name}: {entry}"
        for path in SOURCES
        for entry in _separate_frame(ast.parse(path.read_text(), filename=str(path)), set(hahnpoly.__all__))
    ]
    assert SOURCES and not found, found


def _unused_imports(tree) -> list[str]:
    """Names a module imports (from __future__ aside) and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_dead_import_lint_detects():
    code = "from .poly import Poly, _ints, _y_node_ints\nimport math\nPoly(math.pi)"
    assert _unused_imports(ast.parse(code)) == ["_ints (line 1)", "_y_node_ints (line 1)"]
    assert not _unused_imports(ast.parse("from __future__ import annotations\nimport os.path\nos.sep"))


def test_library_has_no_dead_imports():
    # __init__.py imports to re-export
    found = [
        f"{path.name}: {entry}"
        for path in SOURCES if path.name != "__init__.py"
        for entry in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found


def _unreferenced_privates(trees: dict) -> list[str]:
    """Module-level _private functions and classes that no module reads by name or attribute.

    An import alone is no reference; the dead-import lint flags an import nothing reads.
    """
    defined = []
    used = set()
    for module, tree in trees.items():
        defined += [(node.name, f"{module}:{node.lineno}") for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} {name}" for name, where in defined if name not in used]


def test_private_definition_lint_detects():
    trees = {
        "a.py": ast.parse("def _called(): pass\ndef _stranded(): pass\nclass _Lonely: pass\n"
                          "def _by_attribute(): pass\ndef __getattr__(name): pass"),
        "b.py": ast.parse("from .a import _called, _stranded\nfrom . import a\n_called()\na._by_attribute()"),
    }
    assert _unreferenced_privates(trees) == ["a.py:2 _stranded", "a.py:3 _Lonely"]


def test_library_has_no_unreferenced_privates():
    found = _unreferenced_privates({path.name: ast.parse(path.read_text(), filename=str(path))
                                    for path in SOURCES})
    assert SOURCES and not found, found


def _reads(node, owners=frozenset()):
    """The names node reads by name or attribute, less a def's or class's reads of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners |= {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in owners:
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in owners:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, owners)


def _readerless(names, trees) -> list[str]:
    """The names in names that no tree reads; an import or an assignment alone is no read."""
    read = {name for tree in trees for name in _reads(tree)}
    return [name for name in names if name not in read]


def test_readerless_export_lint_detects():
    trees = [ast.parse("Alias = int\ndef own(n):\n    return own(n - 1)\nclass Used: pass\n"),
             ast.parse("from m import Alias, own\nimport m\nm.by_attribute\nUsed()")]
    assert _readerless(["Alias", "own", "Used", "by_attribute", "absent"], trees) == ["Alias", "own", "absent"]


def test_every_export_has_a_reader():
    # a public name that nothing in the library, tests, demos or bench reads is dead API; __init__.py only re-exports
    paths = [p for p in SOURCES if p.name != "__init__.py"]
    paths += sorted(p for folder in ("tests", "demos", "bench") for p in (REPO / folder).rglob("*.py"))
    found = _readerless(hahnpoly.__all__, [ast.parse(path.read_text(), filename=str(path)) for path in paths])
    assert hahnpoly.__all__ and not found, found


def _unused_parameters(tree) -> list[str]:
    """Parameters, self and cls aside, that their function's body never reads (nested bodies count).

    Dunder methods are skipped: the data model fixes their signatures.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.endswith("__"):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{node.name}({p}) line {node.lineno}" for p in params
                      if p not in ("self", "cls") and p not in read]
    return found


def test_unused_parameter_lint_detects():
    code = ("def f(pear, frame, u, *args, k=1, **kw):\n    def g(x):\n        return x + u\n"
            "    frame = 0\n    return g(pear), k, args\n"
            "class A:\n    def m(self, other):\n        return self\n    @classmethod\n    def c(cls, v):\n        return v\n"
            "    def __setattr__(self, name, value):\n        raise AttributeError")
    assert _unused_parameters(ast.parse(code)) == ["f(frame) line 1", "f(kw) line 1", "m(other) line 7"]


def test_library_has_no_unused_parameters():
    # a parameter nothing reads drops its argument silently
    found = [
        f"{path.name}: {entry}"
        for path in SOURCES
        for entry in _unused_parameters(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found


def _called_name(func) -> str:
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""


# the attributes that build Fractions on read from the integer form: Poly.coeffs and MomentFunctional.moments
ENCODED = ("coeffs", "moments")


def _reads_attr(node, attr, names) -> bool:
    """Whether node reads an attribute attr, or a Name in names."""
    return any((isinstance(n, ast.Attribute) and n.attr == attr) or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def _scopes(tree) -> list[list]:
    """The statements of each function in tree (nested functions included), and the module's own statements."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    top = [node for node in tree.body if not isinstance(node, functions + (ast.ClassDef,))]
    return [top] + [node.body for node in ast.walk(tree) if isinstance(node, functions)]


def _attr_names(body, attr) -> set[str]:
    """Names that an assignment or a for loop in body binds to a value that reads attr, directly or via such a name."""
    bindings = []
    for node in (n for stmt in body for n in ast.walk(stmt)):
        if isinstance(node, ast.Assign):
            bindings.append((node.targets, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and node.value is not None:
            bindings.append(([node.target], node.value))
        elif isinstance(node, ast.For):
            bindings.append(([node.target], node.iter))
    names = set()
    while True:
        bound = {t.id for targets, value in bindings if _reads_attr(value, attr, names)
                 for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        if bound <= names:
            return names
        names |= bound


def _builder(func) -> str:
    """The class a call builds, for Poly(...), MomentFunctional(...) and their (or cls's) classmethods, else ""."""
    classes = ("Poly", "MomentFunctional")
    if isinstance(func, ast.Name) and func.id in classes:
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in classes + ("cls",):
        return func.value.id
    return ""


def _re_encodings(tree) -> list[str]:
    """Calls that round-trip a Poly or a moment table through Fractions: _ints of .coeffs or .moments,
    read in the call or through a name the same function bound to it, or a Poly or MomentFunctional
    built from _fracs(...)."""
    def calls(nodes):
        return [n for n in nodes if isinstance(n, ast.Call)]

    def ints_of(node, attr, names) -> bool:
        return _called_name(node.func) == "_ints" and any(_reads_attr(arg, attr, names) for arg in node.args)

    found = set()
    for node in calls(ast.walk(tree)):
        inner = [n for arg in node.args for n in ast.walk(arg)]
        found |= {(node.lineno, f"_ints of {attr}") for attr in ENCODED if ints_of(node, attr, ())}
        builder = _builder(node.func)
        if builder and any(isinstance(n, ast.Call) and _called_name(n.func) == "_fracs" for n in inner):
            found.add((node.lineno, f"{builder} from _fracs"))
    for body in _scopes(tree):
        for attr in ENCODED:
            names = _attr_names(body, attr)
            found |= {(node.lineno, f"_ints of {attr} through a local name")
                      for node in calls(n for stmt in body for n in ast.walk(stmt))
                      if ints_of(node, attr, names) and not ints_of(node, attr, ())}
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_re_encoding_lint_detects():
    code = ("_ints(f.coeffs)\nqnum._ints(list(p.coeffs)[:2])\nPoly(_fracs(a, b))\n"
            "Poly._from_ints(_fracs(a, b), 1)\n_ints(u.moments)\nPoly(f.coeffs)\n"
            "MomentFunctional(fr, tuple(_fracs(a, b)))\n_fracs(f.nums, dens)\n"
            "class A:\n    X = _ints(p.coeffs)\n    ONE = Poly(_fracs(a, b))\n"
            "    def m(self, q=_ints(p.coeffs)) -> Poly(_fracs(a, b)):\n        return q\n"
            "@register(_ints(p.coeffs))\ndef f(x=Poly(_fracs(a, b))):\n    return x\n"
            "MomentFunctional._wrap(fr, *_fracs(a, b))\n_ints(u.moments[:3])\nu.nums\n")
    assert _re_encodings(ast.parse(code)) == [
        "_ints of coeffs (line 1)", "_ints of coeffs (line 2)", "Poly from _fracs (line 3)", "Poly from _fracs (line 4)",
        "_ints of moments (line 5)", "MomentFunctional from _fracs (line 7)",
        "_ints of coeffs (line 10)", "Poly from _fracs (line 11)", "Poly from _fracs (line 12)",
        "_ints of coeffs (line 12)", "_ints of coeffs (line 14)", "Poly from _fracs (line 15)",
        "MomentFunctional from _fracs (line 17)", "_ints of moments (line 18)"]


def test_re_encoding_lint_follows_local_names():
    # the residual kernel once read phi_poly(pear).coeffs into a name and passed that name to _ints
    code = ("def residual(pear):\n"
            "    phi, psi = phi_poly(pear).coeffs or (F(0),), psi_poly(pear).coeffs\n"
            "    cs, cd = _ints(phi + psi)\n"
            "    held = list(phi)\n"
            "    return _ints(held[:2])\n"
            "def other(f):\n"
            "    for c in f.coeffs:\n"
            "        _ints([c])\n"
            "    nums = f.nums\n"
            "    return _ints(nums), _ints(held)\n"
            "def unrelated(phi):\n"
            "    return _ints(phi)\n"
            "def table(u):\n"
            "    window = u.moments[:4]\n"
            "    return _ints(window)\n")
    assert _re_encodings(ast.parse(code)) == ["_ints of coeffs through a local name (line 3)",
                                              "_ints of coeffs through a local name (line 5)",
                                              "_ints of coeffs through a local name (line 8)",
                                              "_ints of moments through a local name (line 15)"]


def test_library_keeps_poly_on_integers():
    # a Poly is stored as (nums, den) and a moment table as (nums, dens); the kernels read those
    # forms instead of re-encoding coeffs or moments
    found = [
        f"{path.name}: {entry}"
        for path in SOURCES
        for entry in _re_encodings(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found


MAX_COLUMNS = 120


def _long_lines(name: str, text: str) -> list[str]:
    """The lines of text wider than MAX_COLUMNS, as name:line."""
    return [f"{name}:{k}" for k, line in enumerate(text.splitlines(), 1) if len(line) > MAX_COLUMNS]


def test_long_line_lint_detects():
    text = "x = 1\ny = " + "1" * 117 + "\nz = " + "2" * 116
    assert _long_lines("a.py", text) == ["a.py:2"]


def test_library_lines_fit_120_columns():
    # joining lines shortens a module without making it any simpler
    found = [entry for path in SOURCES for entry in _long_lines(path.name, path.read_text())]
    assert SOURCES and not found, found


def test_sequence_kernel_not_exported():
    # the engine reads the one-pass sequences; d_n, e_n and q_bracket stay public, read off them
    assert not {"pearson_sequences", "PearsonSequences"} & set(hahnpoly.__all__)
    assert {"d_n", "e_n", "q_bracket", "rodrigues_constant"} <= set(hahnpoly.__all__)


def _attribute_reads(tree, attr) -> list[int]:
    """The lines where tree reads the attribute attr of any object, as .attr or getattr(..., "attr")."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == attr)
                  or (isinstance(node, ast.Call) and _called_name(node.func) == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant) and node.args[1].value == attr))


def test_attribute_read_lint_detects():
    code = ("def f(s, lam):\n    x = s.lam\n    return s.phi[0] * lam, getattr(s, 'lam'), getattr(s, 'M')\n"
            "y = pearson_sequences(p, f, 3, 1).lam\nz = dict(lam=1)\n")
    assert _attribute_reads(ast.parse(code), "lam") == [2, 3, 4]


def test_only_qnum_reads_the_pair_scale():
    # D(phi u) = psi u is homogeneous, so the scale lam of the integer pair cancels from every ratio and
    # zero test; only qnum's d_n, e_n and rodrigues_constant, which return values of the pair, read it
    found = [f"{path.name}:{line}" for path in SOURCES if path.name != "qnum.py"
             for line in _attribute_reads(ast.parse(path.read_text(), filename=str(path)), "lam")]
    assert SOURCES and not found, found


# the q-numbers and Y_n that tests/reference_kernels.py defines for itself, as the oracles of the library's
ORACLE_OWN_NAMES = {"d_n", "e_n", "q_bracket", "q_factorial", "q_binomial", "y_basis", "_brackets"}


def _library_names_read(tree, names) -> list[str]:
    """The names in names that tree takes from hahnpoly: by a from-import, or as an attribute of a name it imports."""
    bound, found = set(), []  # the local names of hahnpoly and of what is imported from it
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names if a.name.split(".")[0] == "hahnpoly"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hahnpoly":
            bound |= {a.asname or a.name for a in node.names}
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in names]
    found += [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in names
              and isinstance(node.value, (ast.Name, ast.Attribute)) and ast.unparse(node.value).split(".")[0] in bound]
    return found


def test_oracle_import_lint_detects():
    code = ("import math, hahnpoly.poly\nfrom hahnpoly import poly as p, qnum\n"
            "from hahnpoly.qnum import (HahnFrame, d_n,\n    q_bracket as qb)\nfrom other import e_n\n"
            "def f(): return p.y_basis, qnum._brackets, hahnpoly.poly.y_basis, math.q_binomial, p.op_D\n")
    assert sorted(_library_names_read(ast.parse(code), ORACLE_OWN_NAMES)) == [
        "d_n (line 3)", "hahnpoly.poly.y_basis (line 6)", "p.y_basis (line 6)", "q_bracket (line 3)",
        "qnum._brackets (line 6)"]


def test_oracles_define_their_own_q_numbers():
    # an oracle that imports the library's [n]_q, d_n, e_n or Y_n passes whenever the library is wrong the same way
    path = REPO / "tests" / "reference_kernels.py"
    found = _library_names_read(ast.parse(path.read_text(), filename=str(path)), ORACLE_OWN_NAMES)
    assert not found, found


# Fraction's private names differ between CPython versions: _normalize= was
# removed in 3.12 and _from_coprime_ints added there; requires-python is >= 3.10
PRIVATE_FRACTION_NAMES = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"} | {
    name for name in vars(Fraction) if name.startswith("_") and not name.endswith("__")
}


def _private_fraction_uses(tree) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg in PRIVATE_FRACTION_NAMES:
            lines.append(node.value.lineno)
        elif isinstance(node, ast.Attribute) and (
            node.attr in PRIVATE_FRACTION_NAMES
            or (isinstance(node.value, ast.Name) and node.value.id == "Fraction"
                and node.attr.startswith("_") and not node.attr.endswith("__"))
        ):
            lines.append(node.lineno)
    return lines


def test_private_fraction_lint_detects():
    snippets = ["Fraction(1, 2, _normalize=False)", "Fraction._from_coprime_ints(1, 2)",
                "x._numerator * y._denominator", "Fraction._operator_fallbacks"]
    assert all(_private_fraction_uses(ast.parse(code)) for code in snippets)
    assert not _private_fraction_uses(ast.parse("Fraction(x.numerator, x.denominator)"))


def test_library_uses_no_private_fraction_api():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _private_fraction_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found


def _frozen_slotted_dataclasses(tree) -> list[int]:
    """The lines of dataclass(...) calls, decorators included, that pass both frozen=True and slots=True."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called_name(node.func) == "dataclass":
            flags = {k.arg for k in node.keywords if isinstance(k.value, ast.Constant) and k.value.value is True}
            if {"frozen", "slots"} <= flags:
                lines.append(node.lineno)
    return lines


def test_frozen_slots_lint_detects():
    code = ("@dataclass(frozen=True, slots=True)\nclass A: pass\n"
            "@dataclasses.dataclass(slots=True, init=False, frozen=True)\nclass B: pass\n"
            "C = dataclass(frozen=True, slots=True)(object)\n"
            "@dataclass(frozen=True)\nclass D: pass\n"
            "@dataclass(slots=True)\nclass E: pass\n"
            "@dataclass(frozen=True, slots=False)\nclass F: pass\n")
    assert _frozen_slotted_dataclasses(ast.parse(code)) == [1, 3, 5]


def test_library_has_no_frozen_slotted_dataclass():
    # on CPython 3.10 and 3.11 the frozen __setattr__ of a slotted dataclass calls super() with the class
    # from before slots were added, so assigning any name but a field raises TypeError, not AttributeError
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _frozen_slotted_dataclasses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert SOURCES and not found, found


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python, which must read ">=X.Y"."""
    tomllib = pytest.importorskip("tomllib")  # 3.11+, so the check runs on the interpreters above the floor
    spec = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip()).groups()
    return int(major), int(minor)


def _newer_than(paths, floor: tuple[int, int]) -> list[str]:
    """The files among paths that do not parse at the grammar of Python floor, with the reason."""
    found = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    return found


def test_floor_lint_detects(tmp_path):
    path = tmp_path / "groups.py"
    path.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    ast.parse(path.read_text(), feature_version=(3, 11))
    found = _newer_than([path], (3, 10))
    assert len(found) == 1 and found[0].startswith("groups.py:") and "3.11" in found[0], found


def test_sources_parse_at_python_floor():
    # requires-python promises the floor, yet tier-1 runs on a newer interpreter; its grammar is checked here
    floor = _python_floor()
    paths = sorted(p for folder in ("src", "tests", "demos") for p in (REPO / folder).rglob("*.py"))
    found = _newer_than(paths, floor)
    assert floor >= (3, 10) and len(paths) > 20 and not found, found
