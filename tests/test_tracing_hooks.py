"""The benchmark tracer's hooks still name attributes of the coldrec package.

perfbench/tracing.py wraps module-level names, and entries of module-level
dicts such as `pipeline._TRAINERS`, by name. A refactor that renames one
should fail here, not only when a traced benchmark run raises LookupError.
"""

import importlib
import importlib.util
import os

TRACING_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    hooks = [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED]
    assert hooks
    missing = []
    for module_name, attr in hooks:
        owner = importlib.import_module(module_name)
        if "[" in attr:
            container, key = attr[:-1].split("[")
            found = key in getattr(owner, container, {})
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append("%s.%s" % (module_name, attr))
    assert missing == []
