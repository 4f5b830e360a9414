"""Every public top-level function and class in yulkit has a caller in the
package, or README names it in backticks as part of the documented API.  A
name that only tests reach fails here, so it either gains a caller, is
documented as an entry point, or goes."""

import ast
import pathlib
import re

import yulkit

PACKAGE = pathlib.Path(yulkit.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _public_definitions():
    """(module file, name) of each public top-level def and class, and the
    names used anywhere in the package outside their own definition."""
    defined = []
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner is not None and not owner.startswith("_"):
                defined.append((path.name, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined, used


def _readme_names():
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    return {word for span in spans for word in re.findall(r"\w+", span)}


def test_every_public_name_has_a_caller_or_is_documented():
    defined, used = _public_definitions()
    assert defined, "no public definitions found"
    documented = _readme_names()
    orphans = [f"{module}: {name}" for module, name in defined
               if name not in used and name not in documented]
    assert orphans == []
