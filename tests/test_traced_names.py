"""Every name that the benchmark's tracer looks up resolves.

``perfbench/tracing.py``, loaded here from its file, looks each traced name
up as ``bottfano.<module>.<name>``, wraps ``__post_init__`` of a traced
class, and rebinds a traced function in every package module that
holds the same object.  A name dropped from a module, or a function that
its defining module does not hold, would otherwise show only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TRACED = sorted((module, name) for table in (tracing.SPANNED, tracing.COUNTED)
                for module, names in table.items() for name in names)


def test_traced_names_found():
    assert ("fan", "batyrev_classify") in TRACED and ("lattice", "mu") in TRACED


@pytest.mark.parametrize("module, name", TRACED)
def test_traced_name_resolves(module, name):
    namespace = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    assert hasattr(namespace, name)
    traced = getattr(namespace, name)
    if isinstance(traced, type):
        assert "__post_init__" in traced.__dict__
    else:
        assert getattr(sys.modules[traced.__module__], traced.__name__) is traced


def test_traced_class_hooks_run_when_built():
    # a class that kept __post_init__ but stopped calling it would leave its wrapped hook unrun
    from bottfano.tower import BottMatrix, GeneralizedBottTower

    tracer = tracing.Tracer()
    tracer.install()
    try:
        GeneralizedBottTower((1, 1), {(2, 1): (0,)})
        BottMatrix(((1, 0), (0, 1)))
    finally:
        tracer.uninstall()
    _, calls, _ = tracer.summarize(0, tracer.span_count())
    assert calls == {"tower.GeneralizedBottTower": 1, "tower.validate": 1, "tower.BottMatrix": 1}
