"""The public surface of neucalib is what the library and the benchmark use,
and each private helper is one that the library itself calls."""

import ast
import dataclasses
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "neucalib"
CODE = [*sorted(LIBRARY.glob("*.py")), *sorted((ROOT / "stepbench").glob("*.py"))]

# Public names kept ahead of their first caller, each for a ROADMAP item.
PLANNED = {
    "geodesic_angle": "item 7, rotation error of the ablations",
    "save_params": "item 2, the training loop saves weights",
    "load_params": "item 2, the training loop reloads weights",
    "check_shapes": "item 2, reloaded weights must fit the model",
    "RefinedPose.objectives": "item 2, the step record logs the GN objective",
}


def definitions(private: bool = False) -> dict[str, str]:
    """Each public function and class defined in a neucalib module, or with
    ``private`` each one whose name starts with a single underscore, by name,
    with the module that defines it."""
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        module = importlib.import_module(f"neucalib.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_") == private and not name.startswith("__")
                    and (inspect.isfunction(inspect.unwrap(obj)) or inspect.isclass(obj))
                    and inspect.getmodule(obj) is module):
                out[name] = path.stem
    return out


def referenced_names(paths=CODE) -> set[str]:
    """Every identifier that the code in ``paths`` (by default the library
    and stepbench/*.py) reads, imports or calls. Comments, docstrings and the
    name on a def or class line are not references."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def public_fields() -> dict[str, tuple[Path, str]]:
    """Each field of a public dataclass or NamedTuple, as ``Class.field``,
    with the file and the class that define it."""
    out = {}
    for name, module in definitions().items():
        cls = getattr(importlib.import_module(f"neucalib.{module}"), name)
        if dataclasses.is_dataclass(cls):
            names = [f.name for f in dataclasses.fields(cls)]
        elif hasattr(cls, "_fields"):  # a NamedTuple
            names = list(cls._fields)
        else:
            continue
        out.update({f"{name}.{field}": (LIBRARY / f"{module}.py", name) for field in names})
    return out


def attribute_reads() -> dict[str, set[tuple[Path, str | None]]]:
    """For each attribute name that the code of the library and of
    stepbench/*.py reads, the places that read it: the file, and the
    top-level class whose body holds the read (None outside any class)."""
    reads = defaultdict(set)
    for path in CODE:
        for top in ast.parse(path.read_text(), str(path)).body:
            owner = (path, top.name if isinstance(top, ast.ClassDef) else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads[node.attr].add(owner)
    return reads


def test_every_public_definition_has_a_non_test_caller():
    defined, used = definitions(), referenced_names()
    planned = {name for name in PLANNED if "." not in name}
    dangling = sorted(f"{module}.{name}" for name, module in defined.items()
                      if name not in used and name not in planned)
    assert dangling == []
    # a planned name leaves PLANNED once it exists and has a caller
    assert planned <= set(defined)
    assert sorted(planned & used) == []


def test_every_public_field_is_read_outside_its_class():
    fields, reads = public_fields(), attribute_reads()
    read = {name for name, owner in fields.items() if reads[name.split(".")[1]] - {owner}}
    planned = {name for name in PLANNED if "." in name}
    assert sorted(set(fields) - read - planned) == []
    # a planned field leaves PLANNED once it exists and has a reader
    assert planned <= set(fields)
    assert sorted(planned & read) == []


def test_every_public_dataclass_is_frozen():
    # a record checks its rule where it is built, and no field can change after
    classes = [getattr(importlib.import_module(f"neucalib.{module}"), name)
               for name, module in definitions().items()]
    records = [cls for cls in classes if dataclasses.is_dataclass(cls)]
    assert records  # the guard sees something
    assert sorted(cls.__name__ for cls in records if not cls.__dataclass_params__.frozen) == []


def test_only_the_scene_reads_labels():
    # the raw pose and what is derived from it are labels: a scene derives
    # them, its texture included, and no other library module reads them
    labels = {"raw_pose", "gt_projection", "point_overlap_gt", "pixel_overlap_gt"}
    readers = defaultdict(set)
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in labels:
                readers[path.stem].add(node.attr)
    assert readers.pop("scene")  # the guard sees something
    assert {module: sorted(read) for module, read in readers.items()} == {}


def test_every_private_definition_has_a_library_caller():
    # tests may call a private helper too, but only a library caller keeps it
    used = referenced_names(sorted(LIBRARY.glob("*.py")))
    private = definitions(private=True)
    assert private  # the guard sees something
    assert sorted(f"{module}.{name}" for name, module in private.items() if name not in used) == []


def test_no_floating_point_warning_is_hidden():
    # each number is bounded where it enters, so no kernel overflows or
    # divides by zero, and none hides numpy's warnings from the suite's filter
    hidden = [f"{path.name}:{i}" for path in sorted(LIBRARY.glob("*.py"))
              for i, line in enumerate(path.read_text().splitlines(), 1)
              if "errstate(" in line or "seterr(" in line]
    assert hidden == []


def returns_a_value(fn: ast.FunctionDef) -> bool:
    """Whether the body of ``fn``, outside any nested def, class or lambda,
    has a ``return`` of something other than None."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant) and node.value.value is None):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def test_every_public_return_value_is_read():
    # a result that every library and stepbench caller throws away is
    # deleted: a call counts as a read unless it stands alone as a statement,
    # and so does a reference that is no call, such as a function passed on
    valued = {top.name for path in sorted(LIBRARY.glob("*.py"))
              for top in ast.parse(path.read_text(), str(path)).body
              if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
              and returns_a_value(top)}
    assert valued  # the guard sees something
    read = set()
    for path in CODE:
        tree = ast.parse(path.read_text(), str(path))
        discarded = {id(node.value.func) for node in ast.walk(tree)
                     if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in valued and id(node) not in discarded:
                read.add(name)
    planned = {name for name in PLANNED if "." not in name}
    assert sorted(valued - read - planned) == []
