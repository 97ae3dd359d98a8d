"""The benchmark tracer's hooks name functions and caches that exist.

perfbench/tracer.py wraps library functions by dotted path and reads cache
statistics by name; a renamed function or cache would only show when a
traced benchmark run starts.  These checks resolve every name up front.
"""

import importlib.util
import pathlib

import queercrystals.cli  # noqa: F401  (imports every traced module)
from queercrystals import permwords

TRACER_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolved(path):
    owner, attr = tracer._resolve(path)
    return vars(owner)[attr]


def test_span_and_count_paths_resolve():
    paths = [p for ps in tracer.SPANS.values() for p in ps]
    paths += list(tracer.COUNTS.values())
    for path in paths:
        assert callable(resolved(path)), path


def test_caches_have_cache_info():
    for path in tracer.CACHES:
        assert hasattr(resolved(path), "cache_info"), path


def test_word_caches_are_dicts():
    for name in tracer.WORD_CACHES:
        assert isinstance(getattr(permwords, name), dict), name
