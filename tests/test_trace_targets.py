"""Every entry point the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` names its targets as (module, qualified name)
pairs; a renamed or deleted function would otherwise surface only when the
traced benchmark runs.  The file is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _resolves(module, qualname):
    mod = importlib.import_module(f"bmwparam.{module}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return attr in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, qualname, None))


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(m, q) for m, q, _, _ in tracing.SPANS + tracing.COUNTERS]
    assert len(targets) > 50
    missing = [f"{m}.{q}" for m, q in targets if not _resolves(m, q)]
    assert not missing, f"traced entry points not found: {missing}"
