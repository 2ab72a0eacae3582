"""The per-layer benchmark (bench/tracing.py) wraps gbsep attributes by
name. Every one of them must still resolve, so that renaming or deleting a
traced function fails here rather than in the traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS


def test_traced_attributes_resolve():
    spans = _spans()
    assert spans
    for name, home, attr, bindings in spans:
        mod = importlib.import_module(f"gbsep.{home}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), name
        else:
            fn = getattr(mod, attr)
            assert callable(fn), name
            for binding in bindings or ():
                held = vars(importlib.import_module(f"gbsep.{binding}")).values()
                assert any(v is fn for v in held), name
