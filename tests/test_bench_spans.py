"""The traced benchmark run can still wrap every callable it names."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module, cls, attr):
    owner = importlib.import_module(f"contractpricing.{module}")
    if cls is not None:
        return getattr(owner, cls).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_patches_every_wrapped_callable():
    spans = load_spans()
    originals = {entry: current(*entry[1:]) for entry in spans.WRAPPED}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for entry in spans.WRAPPED:
            patched = current(*entry[1:])
            assert patched is not originals[entry], entry
            assert patched.__wrapped__ is originals[entry], entry
    finally:
        tracer.remove()
    for entry in spans.WRAPPED:
        assert current(*entry[1:]) is originals[entry], entry
