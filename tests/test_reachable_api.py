"""Every function, class, parameter, field and method of the library has a reader.

The readers are the `.py` files under `src/heilbronn/`, `scripts/` and
`perfbench/`: the CLI, the other modules, the scripts and the benchmark.  The
tests are not readers, so API that only its unit tests use fails here.  Delete
such API, or keep it in `ALLOWED` with its reason and say why in README's
"Retired API" list.

- A name defined at the top of a module must be referred to by the code of
  a reader: as a name, an attribute or an imported name.  Docstrings,
  comments and other strings do not count, nor do its own definition, the
  re-export in `heilbronn/__init__.py` and `perfbench/tracing.py`, which
  wraps entry points by name and calls none of them.
- A parameter with a default must be passed, by keyword or by position, by
  some call of its function in a reader.
- A dataclass field or a public method of a class must be read as `.name` on
  a value of that class.  A receiver counts as one when it is `self`, a
  parameter annotated with the class, or a name bound to its constructor, to
  a call annotated to return it, or to an element of a field annotated as a
  tuple or list of it.  A read on any other receiver counts only when no
  other class of the package has a member of that name, and a read of the
  CLI's argparse namespace `args` counts for nothing.  A value passed on
  only into the keyword argument of the same name
  (`provenance=f"rescale({c.provenance})"`) is not a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heilbronn"
READERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]
TRACING = ROOT / "perfbench" / "tracing.py"

# API kept without a reader, each with the reason
_KERNEL_REFERENCE = "the kernel tests check the tables and the cutoff against it"
_TRACED = "perfbench/tracing.py wraps it; deleting it is a change to the benchmark"
ALLOWED: dict[str, str] = {
    "kernels.BumpProfile.chi": _KERNEL_REFERENCE,
    "kernels.BumpProfile.dim": _KERNEL_REFERENCE,
    "kernels.BumpProfile.eta_grid": _KERNEL_REFERENCE,
    "kernels.BumpProfile.eta_values": _KERNEL_REFERENCE,
    "kernels.BumpProfile.eta_mass": _KERNEL_REFERENCE,
    "concentration.m_lines_2d": _TRACED,
    "incidence.incidence_count": _TRACED,
    "configurations.PointLineConfiguration.validate":
        "the tests' scalar reference for the configuration checks of the readers",
    "geometry.line_metric": "the tests' scalar reference for the line premetric of the "
                            "row kernels and the line nets",
    "kernels._chi_mass": "the kernel tests check it against scipy's brentq",
}

SOURCES = {p: p.read_text() for d in READERS for p in sorted(d.rglob("*.py"))
           if p != PACKAGE / "__init__.py"}
TREES = {p: ast.parse(text) for p, text in SOURCES.items()}
MODULES = {p: TREES[p] for p in sorted(PACKAGE.glob("*.py")) if p in TREES}
CLASSES = {node.name: node for tree in MODULES.values() for node in tree.body
           if isinstance(node, ast.ClassDef)}
RETURNS = {node.name: node.returns for tree in MODULES.values() for node in ast.walk(tree)
           if isinstance(node, ast.FunctionDef) and node.returns is not None}


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _members(cls):
    """(name, annotation) of the dataclass fields and public methods of `cls`."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and _is_dataclass(cls):
            yield item.target.id, item.annotation
        elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
            yield item.name, None


def _field_annotation(cls, name):
    return next((a for member, a in _members(CLASSES[cls]) if member == name), None)


def _named_class(annotation):
    """The package class an annotation names: C, "C" or C | None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.Name) and annotation.id in CLASSES:
        return annotation.id
    if isinstance(annotation, ast.BinOp):
        return _named_class(annotation.left) or _named_class(annotation.right)
    return None


def _element_class(annotation):
    """The package class A of tuple[A, ...] or list[A]."""
    if isinstance(annotation, ast.Subscript) \
            and getattr(annotation.value, "id", None) in ("tuple", "list"):
        items = annotation.slice.elts if isinstance(annotation.slice, ast.Tuple) \
            else [annotation.slice]
        return _named_class(items[0])
    return None


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _aliases(tree):
    """`import x as y` and `from m import x as y`: y -> x."""
    return {a.asname: a.name.split(".")[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}


def _scopes():
    """(tree, function, enclosing class name or None) of every def in a reader."""
    for tree in TREES.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield tree, node, None
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield tree, item, node.name


def _calls():
    """Callee name -> the calls of it in the readers; `cls(...)` in a method
    of C and a call through an import alias count as calls of C and of the
    aliased name."""
    calls = {}
    aliases = {id(tree): _aliases(tree) for tree in TREES.values()}
    for tree, fn, cls in _scopes():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = _callee(node)
                name = cls if name == "cls" and cls else aliases[id(tree)].get(name, name)
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(fn, skip):
    """(parameter, position or None for keyword-only) of each defaulted
    parameter of `fn`, positions counted after the first `skip` parameters."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, param, position):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


class _Reads(ast.NodeVisitor):
    """The `.name` reads of one function, typed where the receiver's class is
    known."""

    def __init__(self, env, typed, untyped):
        self.env, self.typed, self.untyped = env, typed, untyped
        self.passing = None

    def type_of(self, node):
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            name = _callee(node)
            return name if name in CLASSES else self.env.get(("call", name)) \
                or _named_class(RETURNS.get(name))
        return None

    def element_of(self, node):
        """The class of the items of a field annotated tuple[A, ...] or list[A]."""
        if isinstance(node, ast.Attribute) and self.type_of(node.value):
            return _element_class(_field_annotation(self.type_of(node.value), node.attr))
        return None

    def bind(self, target, cls):
        if isinstance(target, ast.Name) and cls:
            self.env[target.id] = cls

    def visit_Assign(self, node):
        value = node.value
        for target in node.targets:
            self.bind(target, self.type_of(value))
            # f = g if ... else h, with g and h returning the same class
            if isinstance(target, ast.Name) and isinstance(value, ast.IfExp):
                returned = {_named_class(RETURNS.get(getattr(b, "id", None)))
                            for b in (value.body, value.orelse)}
                if len(returned) == 1 and None not in returned:
                    self.env[("call", target.id)] = returned.pop()
        self.generic_visit(node)

    def visit_For(self, node):
        self.bind(node.target, self.element_of(node.iter))
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self.bind(node.target, self.element_of(node.iter))
        self.generic_visit(node)

    def visit_keyword(self, node):
        # provenance=f"...{c.provenance}..." passes the field on, it does not
        # read it
        outer, self.passing = self.passing, node.arg
        self.generic_visit(node)
        self.passing = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr != self.passing:
            owner = self.type_of(node.value)
            if owner:
                self.typed.add((owner, node.attr))
            elif getattr(node.value, "id", None) != "args":
                self.untyped.add(node.attr)
        self.generic_visit(node)


def _reads():
    """({(class, member) read on a value of the class}, {members read on
    other receivers})."""
    typed, untyped = set(), set()
    for tree, fn, cls in _scopes():
        env = {}
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        for i, arg in enumerate(params):
            if i == 0 and cls in CLASSES:
                env[arg.arg] = cls
            if _named_class(arg.annotation):
                env[arg.arg] = _named_class(arg.annotation)
        # comprehensions are visited after the statements that bind their
        # iterables, so a second pass sees every binding
        for _ in range(2):
            _Reads(env, typed, untyped).visit(fn)
    for tree in TREES.values():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                _Reads({}, typed, untyped).visit(node)
    return typed, untyped


def _references(tree):
    """The names the code of a module refers to: names, attributes and
    imported names (docstrings, comments and other strings do not count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _unreached_names():
    refs = {name for p, tree in TREES.items() if p != TRACING for name in _references(tree)}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in refs:
                yield f"{module.stem}.{node.name}"


def _unpassed_parameters():
    calls = _calls()
    for module, tree in MODULES.items():
        defs = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(item, node.name if item.name == "__init__" else item.name, 1)
                 for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)
                 and (item.name == "__init__" or not item.name.startswith("__"))]
        for fn, called_as, skip in defs:
            for param, position in _defaulted(fn, skip):
                if not any(_passes(c, param, position) for c in calls.get(called_as, [])):
                    yield f"{module.stem}.{called_as}({param})"


def _unread_members():
    typed, untyped = _reads()
    owners = {}
    for cls in CLASSES.values():
        for name, _ in _members(cls):
            owners.setdefault(name, set()).add(cls.name)
    for module, tree in MODULES.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for name, _ in _members(cls):
                    if (cls.name, name) not in typed \
                            and not (name in untyped and owners[name] == {cls.name}):
                        yield f"{module.stem}.{cls.name}.{name}"


def test_every_top_level_name_is_reached():
    assert [n for n in _unreached_names() if n not in ALLOWED] == []


def test_every_defaulted_parameter_is_passed():
    assert [p for p in _unpassed_parameters() if p not in ALLOWED] == []


def test_every_field_and_method_is_read():
    assert [m for m in _unread_members() if m not in ALLOWED] == []


def test_every_allowed_entry_is_still_unreached():
    found = {*_unreached_names(), *_unpassed_parameters(), *_unread_members()}
    assert sorted(set(ALLOWED) - found) == []
