"""Every dotted code name README quotes resolves in the package.

A code span of README that starts with ``A.B``, where ``A`` is a difftrack
module or a public class one of them defines, must name something that
exists: each further part is looked up on the module or class before it.
On a class, an attribute its methods assign on ``self`` or a dataclass
field counts too, and ends the lookup, as does anything that is neither
a module nor a class. Other spans (``np.take``, ``msd.csv``) are not
checked.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "difftrack").glob("*.py")} - {"__init__"}


def public_classes():
    """Each public class a difftrack module defines, by name."""
    classes = {}
    for stem in MODULES:
        module = importlib.import_module(f"difftrack.{stem}")
        for name, value in vars(module).items():
            if (
                inspect.isclass(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                classes[name] = value
    return classes


def instance_attributes(cls):
    """The names a class's methods assign on ``self``, and its dataclass
    fields."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }
    if dataclasses.is_dataclass(cls):
        names |= {field.name for field in dataclasses.fields(cls)}
    return names


def quoted_names():
    """The dotted name each code span of README starts with."""
    text = (ROOT / "README.md").read_text()
    return sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text)))


def resolves(owner, parts) -> bool:
    for part in parts:
        if hasattr(owner, part):
            owner = getattr(owner, part)
            if not (inspect.ismodule(owner) or inspect.isclass(owner)):
                return True
        else:
            return inspect.isclass(owner) and part in instance_attributes(owner)
    return True


def test_every_dotted_name_in_readme_resolves():
    classes = public_classes()
    checked, unresolved = [], []
    for dotted in quoted_names():
        head, *parts = dotted.split(".")
        if head in MODULES:
            owner = importlib.import_module(f"difftrack.{head}")
        elif head in classes:
            owner = classes[head]
        else:
            continue
        checked.append(dotted)
        if not resolves(owner, parts):
            unresolved.append(dotted)
    assert checked, "README quotes no dotted difftrack name"
    assert not unresolved, f"README quotes names the package does not define: {unresolved}"


def test_a_missing_name_is_caught():
    # The check's own control: a name that is gone, on a module and on a
    # class, does not resolve, and an instance attribute and a field do.
    classes = public_classes()
    engine = importlib.import_module("difftrack.engine")
    assert not resolves(engine, ["SharedStep"])
    assert not resolves(classes["DiffusionKalmanEngine"], ["sharing"])
    assert resolves(classes["Edges"], ["half"])
    assert resolves(classes["ExperimentConfig"], ["model"])
    assert resolves(classes["RunResult"], ["config"])
