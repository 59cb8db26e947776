"""Every public name of the library is reached by the library itself.

A public top-level function or class must be referenced by some source
module outside its own body (a table such as ``suites.SUITES`` counts), and
a public method must be accessed as an attribute somewhere in the source.
A method whose name the source also stores as an instance attribute (such
as ``self.support = ...``) needs a call site ``.name(``, since reading the
attribute does not reach the method; properties are read, not called.
A name only the tests call is dead weight: each benchmark process compiles
the whole package. Where a module declares ``__all__``, it lists exactly its
public functions and classes, plus any public constants it chooses to name.

A private attribute (``._name``) is read or written only through ``self``
or ``cls``, so each class keeps its state to itself.

Outside ``circle.py`` a digit-rule class is only called, to build a rule,
and never tested for with ``isinstance``: the support form of a point is
read through ``rule.support`` alone.
"""

import ast
from pathlib import Path

import circlelab

SRC = Path(circlelab.__file__).parent

# names kept although no source module reaches them
ALLOWED = {
    # the replay unit: the CLI and verify-suite tests compare envelopes with it
    "cli.envelope_bytes",
    # the fresh-enclosure reference of the tests; the benchmark tracer wraps it
    "circle.EnclosureCache.interval",
}

# private attributes reached through another receiver: a spec's rule, read
# in the module that defines the spec
ALLOWED_PRIVATE = {"sequences.spec._rule"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded and attributes read in ``tree``, outside ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _defs(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name)]


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property"
               for d in node.decorator_list)


def _unreached() -> list[str]:
    modules = _modules()
    dead = []
    for mod, tree in modules.items():
        for node in _defs(tree):
            if not any(node.name in _uses(other, skip=node)
                       for other in modules.values()):
                dead.append(f"{mod}.{node.name}")
    attrs, stored, called = set(), set(), set()
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                attrs.add(n.attr)
                if isinstance(n.ctx, ast.Store):
                    stored.add(n.attr)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                called.add(n.func.attr)
    for mod, tree in modules.items():
        for cls in _defs(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.FunctionDef) and _public(node.name)):
                    continue
                if node.name not in attrs or (
                        node.name in stored and node.name not in called
                        and not _is_property(node)):
                    dead.append(f"{mod}.{cls.name}.{node.name}")
    return sorted(set(dead) - ALLOWED)


def test_every_public_name_is_reached():
    assert _unreached() == []


def test_all_lists_the_public_definitions():
    for mod, tree in _modules().items():
        bound = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = node
        if "__all__" not in bound:
            continue
        listed = ast.literal_eval(bound["__all__"].value)
        assert len(listed) == len(set(listed)), mod
        assert set(listed) >= {node.name for node in _defs(tree)}, mod
        assert set(listed) <= {name for name in bound if _public(name)}, mod


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_private_attributes_stay_with_their_owner():
    reached = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))
                    and f"{mod}.{ast.unparse(node)}" not in ALLOWED_PRIVATE):
                reached.append(f"{mod}.py:{node.lineno}: {ast.unparse(node)}")
    assert reached == []


DIGIT_RULES = {"FiniteDigits", "RationalDigits", "IndicatorDigits"}


def test_digit_rules_are_only_constructed_outside_circle():
    misused = []
    for mod, tree in _modules().items():
        if mod == "circle":
            continue
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in DIGIT_RULES and id(node) not in called:
                misused.append(f"{mod}.py:{node.lineno}: {ast.unparse(node)}")
    assert misused == []


# the integer kernel: the enclosure cache and the lattice helpers of the scan
INTEGER_KERNEL = {"EnclosureCache", "_sort_few", "_sort_many", "_floor_sum"}


def test_the_kernel_builds_no_fraction():
    # every window, band and verdict of the kernel is an integer; a band
    # given as Fractions is turned into integers once, by int_band, outside
    tree = _modules()["circle"]
    kernel = [node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name in INTEGER_KERNEL]
    assert {node.name for node in kernel} == INTEGER_KERNEL
    built = [f"circle.py:{node.lineno}: {ast.unparse(node)}"
             for top in kernel for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "Fraction"]
    assert built == []
