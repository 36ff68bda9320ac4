"""Every global name the package's code looks up exists."""

import builtins
import dis
import importlib
import pkgutil
from types import CodeType

import padicext


def _code_objects(code: CodeType):
    """code and every code object nested in it (functions, classes,
    comprehensions), depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def test_every_load_global_resolves():
    # a LOAD_GLOBAL of an undefined name (a typo, a variable of another
    # scope) raises NameError only when its line runs; this finds it on
    # every line, error paths included
    names = [info.name for info in pkgutil.iter_modules(padicext.__path__)]
    assert {"ffield", "groups", "linalg", "oracle"} <= set(names)
    missing = []
    for name in names:
        module = importlib.import_module(f"padicext.{name}")
        with open(module.__file__, encoding="utf-8") as fh:
            top = compile(fh.read(), module.__file__, "exec")
        for code in _code_objects(top):
            for ins in dis.get_instructions(code):
                if (ins.opname == "LOAD_GLOBAL"
                        and ins.argval not in vars(module)
                        and not hasattr(builtins, ins.argval)):
                    missing.append(f"{name}.{code.co_name}: {ins.argval}")
    assert not missing
