"""The public surface of neucalib is what the library and the benchmark use."""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "neucalib"

# Public names kept ahead of their first caller, each for a ROADMAP item.
PLANNED = {
    "geodesic_angle": "item 7, rotation error of the ablations",
    "save_params": "item 2, the training loop saves weights",
    "load_params": "item 2, the training loop reloads weights",
    "check_shapes": "item 2, reloaded weights must fit the model",
}


def public_definitions() -> dict[str, str]:
    """Each public function and class defined in a neucalib module, by name,
    with the module that defines it."""
    out = {}
    for path in sorted(LIBRARY.glob("*.py")):
        module = importlib.import_module(f"neucalib.{path.stem}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and inspect.getmodule(obj) is module):
                out[name] = path.stem
    return out


def referenced_names() -> set[str]:
    """Every identifier that the code of the library and of stepbench/*.py
    reads, imports or calls. Comments, docstrings and the name on a def or
    class line are not references."""
    used = set()
    for path in [*sorted(LIBRARY.glob("*.py")), *sorted((ROOT / "stepbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_definition_has_a_non_test_caller():
    defined, used = public_definitions(), referenced_names()
    dangling = sorted(f"{module}.{name}" for name, module in defined.items()
                      if name not in used and name not in PLANNED)
    assert dangling == []
    # a planned name leaves PLANNED once it exists and has a caller
    assert set(PLANNED) <= set(defined)
    assert sorted(set(PLANNED) & used) == []
