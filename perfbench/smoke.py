"""Quick self-check of the benchmark harness (``run.py --smoke``).

Checks that the SEC re-check refutes a known false pass and accepts an
equivalent pair, that stub code replies are well-formed modules, and that every
workload, shortened to two iterations, prints a well-formed result line
with exactly the metrics BENCHMARK.json names, in both trace modes, and
that a traced run writes its spans.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from rtlopt.dsl import parse, print_design

from check import refute
from stub import reply_for
from workloads import WORKLOADS, generate

# Sampled SEC passes this pair (the mismatch is one input value in 2**32).
IDENTITY = "module m(input [31:0] x, output [31:0] y); assign y = x; endmodule"
POINT_MISMATCH = ("module m(input [31:0] x, output [31:0] y); "
                  "assign y = (x == 32'hFFFFFFFF) ? 32'd0 : x; endmodule")
REASSOCIATED = ("module m(input [31:0] x, input [31:0] z, output [31:0] y); "
                "assign y = (x + z) + 32'd7; endmodule",
                "module m(input [31:0] x, input [31:0] z, output [31:0] y); "
                "assign y = x + (z + 32'd7); endmodule")


def _check(ok: bool, what: str, failures: list[str]):
    print(f"smoke: {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def smoke(run_py: str) -> int:
    failures: list[str] = []
    _check(refute(parse(IDENTITY), parse(POINT_MISMATCH), 0) is not None,
           "re-check refutes a point mismatch on a 32-bit input", failures)
    _check(refute(parse(REASSOCIATED[0]), parse(REASSOCIATED[1]), 0) is None,
           "re-check accepts an equivalent pair", failures)

    golden = parse(generate("llm-mutants", 0)[0].source)
    prompt_module = print_design(golden)
    replies = [reply_for(prompt_module, 0, n) for n in range(8)]
    modules = [parse(r.split("```verilog\n", 1)[1].split("```", 1)[0]) for r in replies]
    _check(all(m.port_signature() == golden.port_signature() for m in modules)
           and len({print_design(m) for m in modules}) > 1,
           "stub replies parse, vary and keep the port interface", failures)

    root = os.path.dirname(os.path.dirname(run_py))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spans_path = os.path.join(root, ".perfbench_work", f"smoke-spans-{os.getpid()}.jsonl")
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, run_py, "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--iterations", "2"]
            if trace:
                cmd += ["--spans", spans_path]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                _check(False, f"{what} exits 0", failures)
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            _check(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what} is correct", failures)
            _check(set(metrics) == {m["name"] for m in spec[kind]}
                   and all(math.isfinite(m["value"]) for m in metrics.values()),
                   f"{what} reports every {kind} metric", failures)
            if trace:
                llm = WORKLOADS[workload].llm
                ran = all(metrics[f"{layer}.calls"]["value"] > 0 for layer in (
                    "timing.diagnose", "proposer.propose_group", "backend.sec",
                    "backend.sec.golden_sim", "backend.sec.candidate_sim",
                    "trajectory.record_candidate"))
                _check(ran and metrics["trajectory.writes"]["value"] > 0
                       and (metrics["llm.propose.calls"]["value"] > 0) == llm,
                       f"{what} traces every layer it runs", failures)
                spans = []
                if os.path.exists(spans_path):
                    with open(spans_path) as fh:
                        spans = [json.loads(line) for line in fh]
                    os.remove(spans_path)
                _check(any(s["layer"] == "backend.sec" and s["parent"] == "backend.evaluate"
                           for s in spans), f"{what} writes nested spans", failures)
    try:
        os.rmdir(os.path.dirname(spans_path))
    except OSError:
        pass
    print(f"smoke: {'passed' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0
