"""Guard for the benchmark launcher: every callable that perfbench/layers.py
wraps by name, and every context cache it reads, still exists in
basechange.  The benchmark files are only read, never written (no bytecode
cache is left behind)."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


def _resolve(module: str, attr: str):
    """The named attribute, walking Class.method paths; for a method it must
    be defined on the class itself, since that is where the launcher binds
    its wrapper."""
    owner = importlib.import_module("basechange." + module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert name in vars(owner), "%s.%s is inherited, not defined" % (module, attr)
    return getattr(owner, name)


def test_every_span_resolves_to_a_callable(layers):
    entries = [(m, a) for m, a, _, _ in layers.SETUP_SPANS + layers.SPANS]
    entries += [(m, a) for m, a, _ in layers.COUNTED]
    assert len(entries) > 40
    for module, attr in entries:
        assert callable(_resolve(module, attr)), "%s.%s" % (module, attr)


def test_every_context_cache_has_cache_info(layers):
    assert layers.CONTEXT_CACHES
    for module, name in layers.CONTEXT_CACHES:
        info = _resolve(module, name).cache_info()
        assert info.hits >= 0 and info.misses >= 0
