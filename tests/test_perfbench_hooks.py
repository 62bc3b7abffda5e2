"""The names perfbench's tracer wraps exist, and its wrappers come off cleanly.

perfbench/tracing.py patches functions by name in rtlopt's modules; a rename
there would otherwise only show when the benchmark runs.
"""

import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import check  # noqa: E402
import rtlopt.backend  # noqa: E402
import workloads  # noqa: E402
from corpus import CHAIN_ADDER_8_REG  # noqa: E402
from rtlopt.backend import SEC_SYMBOLIC  # noqa: E402
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


def test_traced_run_records_trajectory_layers(tmp_path, monkeypatch):
    """Every trajectory method has spans, state.json is written once, parsing
    and printing have spans (rewrites still print and parse each candidate,
    and the loop parses each promoted one), and SEC splits into one golden
    simulation per stimulus chunk the run reached, candidate simulations and
    one check per evaluated candidate. The registered chain is never proved
    by normal form, so each check simulates."""
    design = parse(CHAIN_ADDER_8_REG, "chain.rtl")
    contexts = []

    class RecordedSec(rtlopt.backend.GoldenSec):
        def __init__(self, golden):
            super().__init__(golden)
            contexts.append(self)

    monkeypatch.setattr(rtlopt.backend, "GoldenSec", RecordedSec)
    tracer = Tracer({id(design)})
    tracer.install()
    try:
        result = run(design, RunConfig(iterations=1), str(tmp_path))
    finally:
        tracer.remove()
    # Iterations go to the journal; state.json is written once, at run end.
    assert tracer.counts[0, "trajectory.writes"] == 1
    assert tracer.counts[0, "trajectory.bytes"] == os.path.getsize(
        os.path.join(result.run_dir, "state.json"))
    layers = tracer.layer_totals(0)
    for method in ("begin_iteration", "record_candidate", "finalize_iteration",
                   "persist", "save_design"):
        assert layers[f"trajectory.{method}"]["calls"] > 0, method
    for layer in ("dsl.parse", "dsl.print"):
        assert layers[layer]["calls"] > 0, layer
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = json.load(fh)
    evaluated = sum(c["status"] != "skipped"
                    for it in state["iterations"] for c in it["candidates"])
    assert evaluated > 0
    assert tracer.counts[0, "backend.sec.checks"] == evaluated
    assert layers["backend.sec"]["calls"] == evaluated
    (sec,) = contexts
    reached = sum(len(ref.chunks) for ref in sec._by_frames.values())
    assert reached >= 1
    assert layers["backend.sec.golden_sim"]["calls"] == reached
    assert layers["backend.sec.candidate_sim"]["calls"] >= 1


def test_symbolic_passes_survive_the_benchmark_recheck(tmp_path):
    """The benchmark's independent oracle (perfbench/check.py) refutes no
    candidate that the normal form proved on a generated 32x16 chain, so an
    unsound normal form fails here and not only in the benchmark."""
    seed = 7
    spec = workloads.adder_chain(random.Random(seed), 32, 16)
    golden = parse(spec.source, "chain.rtl")
    result = run(golden, RunConfig(iterations=3, seed=seed), str(tmp_path))
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = json.load(fh)
    proved = {c["design_ref"] for it in state["iterations"] for c in it["candidates"]
              if c["eval"] and c["eval"]["sec_mode"] == SEC_SYMBOLIC}
    assert proved
    for ref in sorted(proved):
        with open(os.path.join(result.run_dir, "designs", f"{ref}.rtl")) as fh:
            candidate = parse(fh.read(), "chain.rtl")
        assert check.refute(golden, candidate, seed) is None, ref
