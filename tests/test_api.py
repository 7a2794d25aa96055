"""Guard against public API that only the tests call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilbch
from nilbch.assoc import AssocPoly
from nilbch.freelie import LieElement
from nilbch.matrix import NilMatrix
from nilbch.scalars import Numerators, WeilElement

SRC = Path(nilbch.__file__).parent

# Public although no module uses it, each with its reason.
USED_ONLY_OUTSIDE_SRC = {
    # WeilElement's inverse, which the tests check and the benchmark's tracer
    # times; the package inverts through scalars.unit_inverse directly
    "inverse",
    # WeilElement's coeffs view, which builds a Fraction per term; the package
    # reads the numerator rows, and only bench/tracer.py (_weil_term_pairs)
    # reads the view, until ROADMAP item 20 retires the tracer's rebinding
    "coeffs",
    # the associative route to the classical series, which the tests keep as
    # the cross-check of the Lie recursions; bench/tracer.py binds all three
    # by name, so deleting them breaks the traced benchmark run
    "poly_log",
    "dynkin_project",
    "lie_embed",
    # the JSON contracts of the series and check output, which the tests
    # validate that output against
    "SERIES_SCHEMA",
    "REPORT_SCHEMA",
}


def _modules():
    return sorted(SRC.glob("*.py"))


def _counted_modules():
    """The modules whose names count as uses and definitions: all but
    ``__init__.py``, whose re-exports use nothing."""
    return [path for path in _modules() if path.name != "__init__.py"]


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def _definitions() -> tuple[set[str], set[str]]:
    """The public names of the package: those of its module-level functions,
    classes and constants, and those of its class members, each with no
    leading underscore."""
    names, members = set(), set()
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names.update(_assigned_names(node))
            if isinstance(node, ast.ClassDef):
                members.update(
                    item.name for item in node.body if isinstance(item, ast.FunctionDef)
                )
    return ({name for name in names if not name.startswith("_")},
            {name for name in members if not name.startswith("_")})


def _public_definitions() -> set[str]:
    """Every function, class, method and module constant of the package whose
    name has no leading underscore."""
    names, members = _definitions()
    return names | members


def _reads() -> tuple[set[str], set[str]]:
    """The names the counted modules read outside a ``def`` or ``class`` of
    the same name, as a loaded ``ast.Name``, an ``ast.Attribute`` or an
    import alias; and, apart, every name an ``ast.Attribute`` reads."""
    reads, attributes = set(), set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
            attributes.add(name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        if name is not None and name not in inside:
            reads.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in _counted_modules():
        visit(ast.parse(path.read_text()), frozenset())
    return reads, attributes


def _is_unused():
    """The test of whether a name is read nowhere but in its own definitions.
    A class member counts as used only when an ``ast.Attribute`` reads it, so
    a parameter, local or keyword argument of its spelling does not count.
    Any other name counts loads, attribute reads and import aliases outside
    a ``def`` or ``class`` of that name, so a function that only calls itself
    is unused, and so is a name only ``__init__.py`` defines."""
    members = _definitions()[1]
    reads, attributes = _reads()
    return lambda name: name not in (attributes if name in members else reads)


def _unused(names) -> list[str]:
    is_unused = _is_unused()
    return sorted(name for name in names if is_unused(name) and name not in USED_ONLY_OUTSIDE_SRC)


def test_every_exported_name_is_used_inside_the_package():
    unused = _unused(nilbch.__all__)
    assert unused == [], f"exported but never used beyond its definition: {unused}"


def test_every_public_definition_is_used_inside_the_package():
    unused = _unused(_public_definitions())
    assert unused == [], f"defined but never used beyond its definition: {unused}"


def test_the_allow_list_names_only_unused_definitions():
    assert USED_ONLY_OUTSIDE_SRC <= _public_definitions()
    assert all(map(_is_unused(), USED_ONLY_OUTSIDE_SRC))


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _ad_series_sites(path) -> list[str]:
    """The functions of a module that pass ``power_series`` a step mentioning
    a bracket, as module.function."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.FunctionDef):
            continue
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and _name(call.func) == "power_series"):
                continue
            steps = call.args[2:3] + [kw.value for kw in call.keywords if kw.arg == "step"]
            if any("bracket" in _name(n) for step in steps for n in ast.walk(step)):
                sites.append(f"{path.stem}.{node.name}")
    return sites


def test_one_routine_sums_every_ad_series():
    # sum_p c_p (ad a)^p b is summed at the AD node of series.evaluate alone;
    # every other module and function reaches it through that node
    sites = [site for path in _modules() for site in _ad_series_sites(path)]
    assert sites == ["series.evaluate"]


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast, dis, tokenize and copy, which cost
    # every process memory and start-up time; the package needs none of them.
    # A plain command is read from the cli's option table, so argparse and
    # the gettext it imports load only for help and usage errors.
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys, nilbch.cli\n"
        "nilbch.cli.dispatch(['bch', '--order', '2', '--source', 'classical'])\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules)))\n"
        "nilbch.cli.dispatch(['--help'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[2] == "[]" and lines[3].startswith("usage: nilbch")


def test_numerators_subclasses_keep_one_numerator_half():
    # sums, negation, scaling, truth value and the gcd reduction live once,
    # in Numerators, for every algebra class stored as numerator rows, one
    # scalar class serving every Weil algebra
    subclasses, i = Numerators.__subclasses__(), 0
    while i < len(subclasses):
        subclasses += subclasses[i].__subclasses__()
        i += 1
    names = sorted(cls.__name__ for cls in subclasses)
    assert names == ["AssocPoly", "LieElement", "NilMatrix", "WeilElement"]
    shared = {"_with", "_wrap", "_make", "__neg__", "__bool__", "_scaled", "_check_operand"}
    assert shared <= set(vars(Numerators))
    for cls in subclasses:
        own = sorted(shared & set(vars(cls)))
        assert own == [], f"{cls.__name__} defines {own} itself"
        # each _algebra field is a property over the one _alg tuple, never a slot
        slots = set(vars(cls).get("__slots__", ()))
        assert not slots & set(cls._algebra), f"{cls.__name__} slots {slots}"


def test_algebra_fields_are_read_only_and_no_module_compiles_code():
    values = [
        ("trunc", AssocPoly.one(("X", "Y"), 3)),
        ("ring", NilMatrix.identity(3, (1, 1))),
        ("max_degree", LieElement.zero(("X", "Y"), 4)),
        ("ring", WeilElement.one((2,))),
    ]
    for name, value in values:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    callers = [
        f"{path.name}:{node.lineno}"
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _name(node.func) in ("eval", "exec")
    ]
    assert callers == []


def test_polynomials_and_matrices_share_one_ring_scaling():
    # one scaling by a ring scalar, rings.ring_scale over scalars.scale_terms,
    # which the scalar product runs too; WeilElement defines __mul__ and
    # __rmul__, __add__ and __radd__ and inverse in its own body, where
    # bench/tracer.py wraps them by name
    assert AssocPoly.scale is NilMatrix.scale
    own = vars(WeilElement)
    assert own["__mul__"] is own["__rmul__"] and own["__add__"] is own["__radd__"]
    assert "inverse" in own and "coeffs" in own
