"""The traced benchmark run can still wrap every callable it names."""

import importlib

from conftest import load_bench


def current(module, cls, attr):
    owner = importlib.import_module(f"contractpricing.{module}")
    if cls is not None:
        return getattr(owner, cls).__dict__[attr]
    return getattr(owner, attr)


def test_tracer_patches_every_wrapped_callable():
    spans = load_bench("spans")
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
