"""The names the benchmark's layer hooks look up must exist.

``perfbench/layers.py`` skips a hook target the library no longer defines,
so a refactor that moved or inherited a hooked method would silently drop
its metrics.  This reads the target tables from that file (unchanged) and
resolves each one the way ``layers.hook`` does: ``vars(cls)`` for
``Class.attr``, a module-level callable for a function.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_target_resolves():
    layers = _layers()
    missing = []
    for key, module, target in layers.HOT + layers.SPANS + layers.COARSE:
        mod = importlib.import_module(f"qtriangular.{module}")
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name, None)
            found = isinstance(cls, type) and callable(vars(cls).get(attr))
        else:
            found = callable(getattr(mod, target, None))
        if not found:
            missing.append((key, f"{module}.{target}"))
    assert missing == []


def test_every_cached_map_reports_its_cache():
    layers = _layers()
    triangular = importlib.import_module("qtriangular.triangular")
    for name in layers.CACHED:
        assert callable(getattr(getattr(triangular, name), "cache_info", None)), name
