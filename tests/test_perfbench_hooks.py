"""The names perfbench's tracer wraps exist, and its wrappers come off cleanly.

perfbench/tracing.py patches functions by name in rtlopt's modules; a rename
there would otherwise only show when the benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from corpus import CHAIN_ADDER_8  # noqa: E402
from rtlopt.dsl import parse  # noqa: E402
from rtlopt.orchestrator import RunConfig, run  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_install_then_remove_restores_every_patched_name():
    tracer = Tracer(set())
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.remove()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_run_records_trajectory_layers(tmp_path):
    tracer = Tracer(set())
    tracer.install()
    try:
        run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=1), str(tmp_path))
    finally:
        tracer.remove()
    assert tracer.counts[0, "trajectory.writes"] == 3
    layers = tracer.layer_totals(0)
    for method in ("begin_iteration", "record_candidate", "finalize_iteration",
                   "persist", "save_design"):
        assert layers[f"trajectory.{method}"]["calls"] > 0, method
