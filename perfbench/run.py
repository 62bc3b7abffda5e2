#!/usr/bin/env python3
"""Closed-loop benchmark of rtlopt: whole ``run()`` calls on generated designs.

Run from the repository root:

    python3 perfbench/run.py --workload comb-chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --out perfbench/baseline.json
    python3 perfbench/run.py --smoke

One invocation is one closed-loop client in one process: it calls ``run()``
once per design of the workload (one repetition), back to back, until the
next repetition would end after ``--seconds``. With ``--trace 0`` every
repetition is untraced and the end-to-end metrics are reported; with
``--trace 1`` repetitions alternate between untraced and traced (spans
around every layer, see tracing.py) and the per-layer metrics are reported.

Correctness, outside the timed region: a ``run()`` call fails if it raises,
if its state.json/skills.json/result.json differ in any byte from the
design's first repetition in this invocation, or if the reference-simulator
re-check (check.py) refutes one of its SEC passes. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it print every metric by name with its unit, per workload and per
design.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 3
STUB_MODEL = "perfbench-stub"
PORT_PLACEHOLDER = "http://127.0.0.1:PORT"

sys.path.insert(0, HERE)
from workloads import WORKLOADS, generate  # noqa: E402


def _spec_metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def _remove_work_dir():
    try:
        os.rmdir(WORK)  # only once no other invocation has files there
    except OSError:
        pass


def setup_once(workload: str, seed: int) -> float:
    """Seconds to import rtlopt, generate and parse the designs, start the stub."""
    start = time.perf_counter()
    import rtlopt
    for spec in generate(workload, seed):
        rtlopt.parse(spec.source, filename=f"{spec.label}.rtl")
    if not WORKLOADS[workload].llm:
        return time.perf_counter() - start
    import rtlopt.llm  # noqa: F401
    from stub import LlmStub
    stub = LlmStub(seed)
    took = time.perf_counter() - start
    stub.close()  # waits out the server's poll interval; not set-up work
    return took


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, so every probe pays the imports."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    ranked = sorted(samples)
    k = n - 11
    return f"p{100 * (k + 1) // n}={ranked[k]:.6g} (n={n})"


class Bench:
    def __init__(self, workload: str, seed: int, iterations: int | None):
        import rtlopt
        from rtlopt.orchestrator import RunConfig
        from rtlopt.proposer import LlmSettings, ProposerConfig

        self.rtlopt = rtlopt
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.specs = generate(workload, seed)
        self.designs = [rtlopt.parse(s.source, filename=f"{s.label}.rtl")
                        for s in self.specs]
        self.stub = None
        llm = None
        if self.workload.llm:
            from stub import LlmStub
            self.stub = LlmStub(seed)
            # No retries: a rejected reply falls back to the rule catalog at once.
            llm = LlmSettings(base_url=self.stub.base_url, model=STUB_MODEL,
                              timeout_s=30.0, max_retries=0)
        slots = self.workload.slots
        # Only proposer.n_candidates sets the group size today; set both.
        self.config = RunConfig(
            iterations=iterations or self.workload.iterations, candidates=slots,
            proposer=ProposerConfig(n_candidates=slots, llm=llm))
        self.work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        self.reference: dict[str, str] = {}   # design label -> artifact digest
        self.failures: list[str] = []
        self.failed: set[tuple[str, int]] = set()   # (design label, repetition)
        self.attempted = 0

    def close(self):
        if self.stub is not None:
            self.stub.close()
        shutil.rmtree(self.work, ignore_errors=True)
        _remove_work_dir()

    def _client(self, out_dir: str):
        if self.stub is None:
            return None
        from rtlopt.llm import LlmClient
        self.stub.reset()
        return LlmClient(self.config.proposer.llm,
                         transcript_dir=os.path.join(out_dir, "llm"))

    def _digest(self, run_dir: str) -> str:
        h = hashlib.sha256()
        for name in ("state.json", "skills.json", "result.json"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                data = fh.read()
            if self.stub is not None:
                data = data.replace(self.stub.base_url.encode(), PORT_PLACEHOLDER.encode())
            h.update(name.encode() + b"\0" + data + b"\0")
        return h.hexdigest()

    def warm_up(self):
        """One short untimed run, so lazy imports and first calls are paid."""
        from dataclasses import replace
        out_dir = os.path.join(self.work, "warm-up")
        self.rtlopt.run(self.designs[0], replace(self.config, iterations=1), out_dir,
                        llm_client=self._client(out_dir))
        shutil.rmtree(out_dir)

    def repetition(self, rep: int) -> dict:
        """One run() per design; returns timings and per-design outcomes."""
        rows = {}
        for spec, design in zip(self.specs, self.designs):
            out_dir = os.path.join(self.work, f"rep{rep}", spec.label)
            client = self._client(out_dir)
            gc.collect()
            self.attempted += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = self.rtlopt.run(design, self.config, out_dir, llm_client=client)
            except Exception as exc:  # a crashing design counts as failed, not fatal
                self.failed.add((spec.label, rep))
                self.failures.append(f"{spec.label} rep {rep}: run() raised "
                                     f"{type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            digest = self._digest(result.run_dir)
            first = self.reference.setdefault(spec.label, digest)
            if digest != first:
                self.failed.add((spec.label, rep))
                self.failures.append(f"{spec.label} rep {rep}: artifacts differ from "
                                     f"repetition 0 ({digest[:12]} vs {first[:12]})")
            with open(os.path.join(result.run_dir, "state.json")) as fh:
                state = json.load(fh)
            checked = sum(c["status"] != "skipped"
                          for it in state["iterations"] for c in it["candidates"])
            rows[spec.label] = {"wall": wall, "cpu": cpu, "checked": checked,
                                "result": result, "digest": digest}
            if rep > 0:
                shutil.rmtree(result.run_dir)
        return rows

    def recheck(self) -> dict[str, list[str]]:
        """Refutations of repetition 0's SEC passes, per design label."""
        from check import refute
        refuted = {}
        for spec, design in zip(self.specs, self.designs):
            run_dir = os.path.join(self.work, "rep0", spec.label,
                                   f"{design.name}-seed{self.config.seed}")
            if not os.path.isdir(run_dir):
                continue
            with open(os.path.join(run_dir, "state.json")) as fh:
                state = json.load(fh)
            seen = set()
            for it in state["iterations"]:
                for cand in it["candidates"]:
                    ref = cand["design_ref"]
                    if not (cand["eval"] and cand["eval"]["sec_pass"]) or ref in seen:
                        continue
                    seen.add(ref)
                    with open(os.path.join(run_dir, "designs", f"{ref}.rtl")) as fh:
                        candidate = self.rtlopt.parse(fh.read(), filename=design.filename)
                    why = refute(design, candidate, self.seed)
                    if why is not None:
                        refuted.setdefault(spec.label, []).append(
                            f"{spec.label} {cand['candidate_id']} ({ref}, "
                            f"{cand['eval']['sec_mode']} SEC pass): {why}")
        return refuted


def bench(args) -> tuple[dict, dict]:
    """Returns (last-line result, detailed report)."""
    # Set-up probes are spread over the invocation (some before, one after
    # each repetition) so their median sees the same machine as run_s.
    setup = [measure_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    b = Bench(args.workload, args.seed, args.iterations)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer({id(d) for d in b.designs})
    reps: list[dict] = []
    traced: list[bool] = []
    try:
        b.warm_up()
        start = time.perf_counter()
        while True:
            rep = len(reps)
            on = tracer is not None and rep % 2 == 1
            began = time.perf_counter()
            if on:
                tracer.run = rep
                tracer.install()
            try:
                reps.append(b.repetition(rep))
            finally:
                if on:
                    tracer.remove()
            traced.append(on)
            setup.append(measure_setup(args.workload, args.seed))
            took = time.perf_counter() - began
            enough = len(reps) >= (2 if tracer is not None else 1)
            if enough and time.perf_counter() - start + took > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        recheck_start = time.perf_counter()
        refuted = b.recheck()
        recheck_s = time.perf_counter() - recheck_start
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    finally:
        b.close()

    # Repetitions are byte-identical, so a refuted SEC pass of repetition 0
    # fails every repetition of that design.
    for label, why in refuted.items():
        b.failures.extend(why)
        b.failed.update((label, rep) for rep in range(len(reps)))
    failed_calls = len(b.failed)

    untraced = [r for r, t in zip(reps, traced) if not t]
    walls = [sum(row["wall"] for row in r.values()) for r in untraced]
    first = reps[0]
    labels = [s.label for s in b.specs if s.label in first]

    # Each design's median over the repetitions, summed: a slow repetition
    # of one design does not drag the others' samples into the median.
    def per_design_median(rows, key):
        samples = ([r[label][key] for r in rows if label in r] for label in labels)
        return sum(statistics.median(s) for s in samples if s)

    def quality(fn):
        return statistics.fmean(fn(first[label]["result"]) for label in labels)

    run_s = per_design_median(untraced, "wall")
    end_to_end = {
        "run_s": (run_s, "s"),
        "candidates_per_s": (sum(first[label]["checked"] for label in labels) / run_s, "1/s"),
        "run_cpu_s": (per_design_median(untraced, "cpu"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "score_gain": (quality(lambda r: -r.best_score), "score"),
        "wns_ratio": (quality(lambda r: 1 + r.improvement["wns_pct"] / 100), "ratio"),
        "tns_ratio": (quality(lambda r: 1 + r.improvement["tns_pct"] / 100), "ratio"),
        "area_ratio": (quality(lambda r: 1 + r.improvement["area_pct"] / 100), "ratio"),
        "ok_share": (1 - failed_calls / b.attempted, "share"),
    }
    designs = {}
    for label in labels:
        res = first[label]["result"]
        rows = [r[label] for r in untraced if label in r]
        designs[label] = {
            "run_s": (statistics.median(row["wall"] for row in rows), "s"),
            "run_cpu_s": (statistics.median(row["cpu"] for row in rows), "s"),
            "candidates": (first[label]["checked"], "count"),
            "best_score": (res.best_score, "score"),
            "wns_pct": (res.improvement["wns_pct"], "%"),
            "tns_pct": (res.improvement["tns_pct"], "%"),
            "area_pct": (res.improvement["area_pct"], "%"),
            "sec_pass_rate": (res.sec_pass_rate, "share"),
        }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps), "traced_repetitions": sum(traced),
        "attempted": b.attempted, "failed": failed_calls,
        "failed_share": failed_calls / b.attempted, "failures": b.failures,
        "run_s_samples": walls,
        "design_run_s_samples": {label: [r[label]["wall"] for r in untraced if label in r]
                                 for label in labels},
        "run_s_spread": high_percentile(walls),
        "setup_probes_s": setup,
        "recheck_s": recheck_s,
        "artifact_digests": dict(b.reference),
        "end_to_end": end_to_end, "designs": designs,
    }
    if tracer is not None:
        layers = per_layer(tracer, [i for i, t in enumerate(traced) if t])
        traced_reps = [r for r, t in zip(reps, traced) if t]
        layers["tracing_overhead"] = (per_design_median(traced_reps, "wall") / run_s, "ratio")
        report["per_layer"] = layers
        wanted = {m["name"] for m in _spec_metrics("per_layer")}
    else:
        wanted = {m["name"] for m in _spec_metrics("end_to_end")}
    table = report["per_layer"] if tracer is not None else end_to_end
    missing = wanted - table.keys()
    if missing:
        raise RuntimeError(f"BENCHMARK.json names unmeasured metrics: {sorted(missing)}")
    result = {
        "correct": failed_calls == 0,
        "attempted": b.attempted,
        "failed": failed_calls,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in table.items() if name in wanted},
    }
    return result, report


def per_layer(tracer, runs: list[int]) -> dict:
    """Median over traced repetitions of each layer's per-repetition totals."""
    from tracing import LAYERS

    def med(fn):
        return statistics.median(fn(r) for r in runs)

    def cnt(r, name):
        return tracer.counts[r, name]

    def ratio(r, num, den):
        d = cnt(r, den)
        return cnt(r, num) / d if d else 0.0

    totals = {r: tracer.layer_totals(r) for r in runs}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (med(lambda r: totals[r][layer]["calls"]), "count")
        if layer == "backend.sec":
            # Self time of a check is everything but the two simulations:
            # stimulus generation plus the output compare.
            out["backend.sec.stimulus_ms"] = (med(lambda r: totals[r][layer]["self_ms"]), "ms")
            out["backend.sec.total_ms"] = (med(lambda r: totals[r][layer]["total_ms"]), "ms")
        else:
            out[f"{layer}.self_ms"] = (med(lambda r: totals[r][layer]["self_ms"]), "ms")
    out["backend.sec.exhaustive"] = (med(lambda r: cnt(r, "backend.sec.exhaustive")), "count")
    out["backend.sec.sampled"] = (med(lambda r: cnt(r, "backend.sec.sampled")), "count")
    out["backend.sec.pass_ratio"] = (
        med(lambda r: ratio(r, "backend.sec.passed", "backend.sec.checks")), "ratio")
    out["trajectory.writes"] = (med(lambda r: cnt(r, "trajectory.writes")), "count")
    out["trajectory.bytes"] = (med(lambda r: cnt(r, "trajectory.bytes")), "B")
    out["orchestrator.pool_parallelism"] = (med(
        lambda r: totals[r]["backend.evaluate"]["total_ms"]
        / totals[r]["orchestrator.evaluate_group"]["total_ms"]), "ratio")
    out["rewrites.hit_ratio"] = (
        med(lambda r: ratio(r, "rewrites.applied", "rewrites.attempts")), "ratio")
    out["proposer.fill_ratio"] = (
        med(lambda r: ratio(r, "proposer.filled", "proposer.slots")), "ratio")
    out["llm.accept_ratio"] = (med(lambda r: ratio(r, "llm.accepted", "llm.requests")), "ratio")
    return out


def print_report(report: dict):
    w, s = report["workload"], report["seed"]
    print(f"# workload {w} seed {s} trace {report['trace']}: {report['repetitions']} "
          f"repetitions ({report['traced_repetitions']} traced) in {report['seconds']} s")
    print(f"{w:<14} {'setup_probes_s':<36} {report['setup_probes_s']}")
    print(f"{w:<14} {'run_s_samples':<36} {report['run_s_samples']}")
    print(f"{w:<14} {'recheck_s':<36} {report['recheck_s']:.3f}")
    print(f"{w:<14} {'run_s_spread':<36} {report['run_s_spread']}")
    for name, (value, unit) in report["end_to_end"].items():
        print(f"{w:<14} {name:<36} {value:>16.6f} {unit}")
    print(f"{w:<14} {'failed_share':<36} {report['failed_share']:>16.6f} share "
          f"({report['failed']} of {report['attempted']} run() calls)")
    for failure in report["failures"]:
        print(f"{w:<14} FAILURE {failure}")
    for label, metrics in report["designs"].items():
        for name, (value, unit) in metrics.items():
            print(f"{label:<14} {name:<36} {value:>16.6f} {unit}")
        print(f"{label:<14} {'artifacts_sha256':<36} {report['artifact_digests'][label]}")
    for name, (value, unit) in report.get("per_layer", {}).items():
        print(f"{w:<14} {name:<36} {value:>16.6f} {unit}")


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {"seed": args.seed, "seconds": args.seconds,
                "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                            "python": platform.python_version()},
                "workloads": {}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            path = os.path.join(WORK, f"report-{name}-{trace}-{os.getpid()}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--report", path]
            if args.iterations:
                cmd += ["--iterations", str(args.iterations)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            with open(path) as fh:
                combined["workloads"].setdefault(name, {})[f"trace{trace}"] = json.load(fh)
            os.remove(path)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
    _remove_work_dir()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(combined, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write every report here")
    parser.add_argument("--report", help="write this workload's detailed report here")
    parser.add_argument("--spans", help="with --trace 1: write every span here (JSONL)")
    parser.add_argument("--iterations", type=int, help="override the loop length")
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-check of the harness on shortened workloads")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "rtlopt")):
        print(f"perfbench: no rtlopt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        print(setup_once(args.workload, args.seed))
        return 0
    if args.smoke:
        from smoke import smoke
        return smoke(os.path.abspath(__file__))
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return 0 if run_all(args) else 1

    os.makedirs(WORK, exist_ok=True)
    result, report = bench(args)
    if args.report:
        os.makedirs(os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print_report(report)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
