"""Every public function, class, method and property of levrot has a caller.

A name counts as used when it appears as a word in the library, the demos,
the tools or the benchmark (any ``.py`` file under ``src/``, ``demos/``,
``tools/`` or ``bench/``) on a line other than its own ``def`` or ``class``
line.  A name that only the tests use belongs next to those tests.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import levrot

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "tools", "bench")


def public_names():
    """(qualified name, bare name) of every public module-level function or
    class defined in levrot, and of every public method or property of such
    a class."""
    for info in pkgutil.walk_packages(levrot.__path__, "levrot."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            yield f"{module.__name__}.{name}", name
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (property, classmethod, staticmethod))):
                    yield f"{module.__name__}.{name}.{attr}", attr


def caller_lines():
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield from path.read_text(encoding="utf-8").splitlines()


def test_every_public_name_has_a_caller_outside_the_tests():
    lines = list(caller_lines())
    unused = []
    for qualified, name in public_names():
        own = re.compile(rf"^\s*(async\s+def|def|class)\s+{name}\b")
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(qualified)
    assert unused == [], f"public names that only the tests use: {unused}"
