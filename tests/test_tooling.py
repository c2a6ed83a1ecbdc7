"""The bench's span tracer patches sepkit functions by name; these tests catch
a rename or deletion of a traced name before a `--trace 1` run does."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import sepkit.cli  # noqa: F401  (imports every traced module)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_tracer_restores_them():
    spans = load_spans()
    originals = {}
    for mod_name, fn_name, _ in spans.TRACED:
        mod = importlib.import_module(f"sepkit.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"sepkit.{mod_name}.{fn_name}"
        originals[mod_name, fn_name] = (mod, getattr(mod, fn_name))
    with spans.Tracer():
        for (mod_name, fn_name), (mod, fn) in originals.items():
            assert getattr(mod, fn_name) is not fn, f"{mod_name}.{fn_name} not patched"
    for (mod_name, fn_name), (mod, fn) in originals.items():
        assert getattr(mod, fn_name) is fn, f"{mod_name}.{fn_name} not restored"


def test_tracer_reads_the_core_round_cap():
    from sepkit import solver_core

    params = inspect.signature(solver_core.minimize_linear_zform).parameters
    assert "max_rounds" in params
    assert load_spans().Tracer()._max_rounds == params["max_rounds"].default
