"""Package surface."""
import ast
from dataclasses import fields, replace
from pathlib import Path

import pytest

import lidsn
from lidsn.cli import RunConfig
from lidsn.config import ModelConfig
from lidsn.data import ClassRecipe, FeatureArgs, SynthSpec
from lidsn.errors import ConfigError
from lidsn.training import TrainConfig


def test_every_exported_name_resolves():
    missing = [name for name in lidsn.__all__ if not hasattr(lidsn, name)]
    assert missing == []


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(Path(lidsn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                used |= set(ast.literal_eval(node.value))  # re-exports count as used
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_definition_is_used_in_its_module():
    # a helper left behind by a deletion (no caller in its own module) fails here
    orphans = []
    for path in sorted(Path(lidsn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        orphans += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and node.name not in used]
    assert orphans == []


def test_cli_imports_no_engine_internals():
    # the CLI reaches the tensor engine and the random streams only through
    # the modules that own them (gradcheck, network, training)
    tree = ast.parse((Path(lidsn.__file__).parent / "cli.py").read_text())
    engine = {"tensor", "rng"}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("lidsn.")
            names = {alias.name for alias in node.names} if module in ("", "lidsn") else {module}
            imported += sorted(names & engine)
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.removeprefix("lidsn.") in engine]
    assert imported == []


def test_every_public_tensor_function_has_a_caller_in_the_package():
    # the grad-check battery exercises every primitive, so it does not count
    # as a caller: a primitive only it reaches is dead engine code
    package = Path(lidsn.__file__).parent
    tree = ast.parse((package / "tensor.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.name in ("tensor.py", "gradcheck.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tensor":
                called |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "tz"):
                called.add(node.attr)
    assert sorted(public - called) == []


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return ast.unparse(node), _literal  # an expression equals only its own source


def _keyword_defaults(fn: ast.FunctionDef, bound: int) -> dict:
    """{parameter: (position or None, default)}, past the first `bound` (self or cls)."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[bound:]
    first = len(positional) - len(a.defaults)
    params = {p.arg: (first + i, _literal(d))
              for i, (p, d) in enumerate(zip(positional[first:], a.defaults))}
    params |= {p.arg: (None, _literal(d))
               for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return params


PACKAGE = Path(lidsn.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _public_keyword_defaults() -> tuple[dict, dict]:
    """{callee name: {parameter: (position or None, default)}} and {callee name: module}.

    Public functions, public methods and constructors of every module count;
    a callee is named by its last attribute, and a class by its __init__.
    """
    defaults, where = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found = [(node.name if m.name == "__init__" else m.name, m,
                          0 if "staticmethod" in map(ast.unparse, m.decorator_list) else 1)
                         for m in node.body if isinstance(m, ast.FunctionDef)
                         and (m.name == "__init__" or not m.name.startswith("_"))]
            else:
                continue
            for name, fn, bound in found:
                params = _keyword_defaults(fn, bound)
                if params:
                    defaults.setdefault(name, {}).update(params)
                    where[name] = path.stem
    return defaults, where


def _calls(paths):
    """(callee name, call node) for every call in these files. The grad-check
    battery calls every primitive, so its calls (gradcheck.primitive_cases)
    do not count."""
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            if path.parent == PACKAGE and path.name == "gradcheck.py" \
                    and getattr(top, "name", None) == "primitive_cases":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    yield f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None), node


def _passed(node: ast.Call, param: str, pos) -> list | None:
    """The argument expressions a call passes for a parameter, or None when
    it unpacks *args or **kwargs and so may pass anything."""
    if (any(isinstance(v, ast.Starred) for v in node.args)
            or any(kw.arg is None for kw in node.keywords)):
        return None
    passed = [kw.value for kw in node.keywords if kw.arg == param]
    if pos is not None and pos < len(node.args):
        passed.append(node.args[pos])
    return passed


def test_every_keyword_default_is_overridden_by_a_package_call():
    # a default that every call leaves alone is a constant with a knob on it;
    # a call overrides it by passing a different literal or another expression
    defaults, where = _public_keyword_defaults()
    overridden = set()
    for name, node in _calls(sorted(PACKAGE.glob("*.py"))):
        for param, (pos, default) in defaults.get(name, {}).items():
            passed = _passed(node, param, pos)
            if passed is None or any(_literal(v) != default for v in passed):
                overridden.add((name, param))
    never = [f"{where[name]}.{name}.{param}" for name, params in sorted(defaults.items())
             for param in params if (name, param) not in overridden]
    assert never == []


def test_every_keyword_default_is_left_out_by_some_call():
    # the dual: a default that every call passes anyway is a required
    # parameter in disguise, and a call that forgets it gets a silent value
    # (a float32 model's parameters loaded as float64, say). Calls in the
    # package, perfbench and the tests count
    defaults, where = _public_keyword_defaults()
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    left_out = {(name, param) for name, node in _calls(paths)
                for param, (pos, _) in defaults.get(name, {}).items()
                if _passed(node, param, pos) == []}
    never = [f"{where[name]}.{name}.{param}" for name, params in sorted(defaults.items())
             for param in params if (name, param) not in left_out]
    assert never == []


def test_tensor_checks_finiteness_in_one_place():
    # every output and gradient check, Adam's included, goes through
    # tensor._finite, one elementwise isfinite reduction; np.all and np.pad
    # cost a Python wrapper per call
    for module, checker in (("tensor.py", {"_finite"}), ("training.py", set())):
        tree = ast.parse((Path(lidsn.__file__).parent / module).read_text())
        calls = []
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
                    calls.append((getattr(top, "name", None), node.func.attr))
        assert [c for c in calls if c[1] in ("all", "pad")] == [], module
        assert {name for name, attr in calls if attr == "isfinite"} == checker, module


def test_every_config_field_is_read_outside_its_class():
    # a field that only its own checks and properties read is a knob with no
    # effect; a read is an attribute load or a keyword argument of that name
    package = Path(lidsn.__file__).parent
    reads = []  # (name of the top-level class it sits in or None, names read)
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.keyword):
                    names.add(node.arg)
            reads.append((top.name if isinstance(top, ast.ClassDef) else None, names))
    unread = []
    for cls in (ModelConfig, TrainConfig, RunConfig, SynthSpec, ClassRecipe, FeatureArgs):
        outside = set().union(*(names for owner, names in reads if owner != cls.__name__))
        unread += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in outside]
    assert unread == []


# (config type, required fields, one out-of-range field)
CONFIG_TYPES = [
    (ModelConfig, {"n_channels": 8, "n_samples": 512, "n_classes": 2}, {"dropout": 1.0}),
    (TrainConfig, {}, {"lr": 0.0}),
    (RunConfig, {}, {"n_folds": 1}),
    (SynthSpec, {}, {"n_subjects": 0}),
    (FeatureArgs, {}, {"outer_overlap": 5.0}),
]


@pytest.mark.parametrize("cls, required, bad", CONFIG_TYPES,
                         ids=[c[0].__name__ for c in CONFIG_TYPES])
def test_config_is_checked_when_built(cls, required, bad):
    valid = cls(**required)
    with pytest.raises(ConfigError):
        cls(**required, **bad)
    with pytest.raises(ConfigError):
        replace(valid, **bad)
