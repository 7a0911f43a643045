"""bench/tracing.py wraps library functions by name.  Installing and
uninstalling its tracer on the real package here makes a rename or removal
of a traced function fail the tests, not only the traced benchmark."""
import importlib
import importlib.util
from pathlib import Path

from quandle_cayley import quandles as Q

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracing()
    originals = {}
    for module_name, funcs in tracing.LAYERS.values():
        module = importlib.import_module(f"quandle_cayley.{module_name}")
        for f in funcs:
            assert hasattr(module, f), f"{module_name}.{f} is traced but gone"
            originals[module_name, f] = getattr(module, f)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        Q.Quandle(Q.dihedral_quandle(3).rhd)
        for (module_name, f), original in originals.items():
            module = importlib.import_module(f"quandle_cayley.{module_name}")
            assert getattr(module, f) is not original, f
    finally:
        tracer.uninstall()
    for (module_name, f), original in originals.items():
        module = importlib.import_module(f"quandle_cayley.{module_name}")
        assert getattr(module, f) is original, f
    names = [span[0] for span in tracer.spans]
    assert names == ["quandles.dihedral_quandle", "quandles.verify_quandle_axioms"]
    # a family constructor's table is not scanned, so this scan is raw
    assert tracer.counters["quandles.axioms.derived_calls"] == 0
    assert tracer.counters["quandles.axioms.raw_calls"] == 1
