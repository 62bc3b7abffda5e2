"""Evaluation backends: builtin synthesis-free oracle and external adapter.

The builtin backend computes endpoint delays by longest-path traversal of
the expression DAG with a fixed delay/area table, and checks sequential
equivalence by exhaustive or seeded-random co-simulation from the zero
state. The external backend shells out to a user-configured toolchain and
extracts metrics with named regex patterns; it never interprets reports.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .dsl import CompiledDesign, Expr, RtlDesign, topo_order
from .timing import Stage, TimingPath, TimingReport

# Delay model (ns); w is the operand width. Width-dependent terms make wide
# compares and arithmetic chains real bottlenecks.
CLK_TO_Q_NS = 0.05
SETUP_NS = 0.05
DEFAULT_CLOCK_NS = 0.5
EXTERNAL_DEFAULT_CLOCK_NS = 0.1

# Area model (units); register area makes duplication measurable.
REGISTER_AREA_PER_BIT = 6.0

# Equivalence-check budgets.
SEC_EXHAUSTIVE_BUDGET_BITS = 20
SEC_SAMPLE_COUNT = 100_000
SEC_SAMPLE_SEED = 0xD0

SEC_EXHAUSTIVE = "exhaustive"
SEC_BOUNDED = "bounded-sampled"
SEC_EXTERNAL = "external"
SEC_SKIPPED_BASELINE = "skipped-baseline"

EXTERNAL_TIMEOUT_S = 3600.0


class BackendError(Exception):
    pass


class PortInterfaceMismatch(BackendError):
    """Golden and candidate differ in port names/directions/widths."""


def node_delay_ns(kind: str, operand_width: int) -> float:
    if kind in ("const", "var"):
        return 0.0
    if kind in ("not", "slice", "shl", "shr"):
        return 0.05
    if kind in ("and", "or", "xor"):
        return 0.10
    if kind == "mux":
        return 0.15
    if kind == "eq":
        return 0.05 + 0.02 * math.ceil(math.log2(operand_width)) if operand_width > 1 else 0.05
    if kind in ("lt", "add", "sub"):
        return 0.05 + 0.02 * operand_width
    raise AssertionError(f"unhandled kind {kind}")


def node_area(kind: str, operand_width: int) -> float:
    if kind in ("const", "var", "slice", "shl", "shr"):
        return 0.0
    if kind == "not":
        return 1.0
    if kind in ("and", "or", "xor"):
        return 2.0 * operand_width
    if kind == "mux":
        return 3.0 * operand_width
    if kind in ("eq", "lt"):
        return 2.0 * operand_width
    if kind in ("add", "sub"):
        return 4.0 * operand_width
    raise AssertionError(f"unhandled kind {kind}")


def _operand_width(expr: Expr) -> int:
    if expr.kind == "mux":
        return expr.width  # data width, not the 1-bit select
    return expr.args[0].width if expr.args else expr.width


@dataclass(frozen=True)
class PpaMetrics:
    wns: float   # ns; negative when violated, positive when met
    tns: float   # ns; sum of negative endpoint slacks, always <= 0
    area: float  # area units

    def to_dict(self) -> dict:
        return {"wns": self.wns, "tns": self.tns, "area": self.area}

    @classmethod
    def from_dict(cls, d: dict) -> "PpaMetrics":
        return cls(d["wns"], d["tns"], d["area"])


@dataclass(frozen=True)
class Counterexample:
    input_trace: tuple       # per-frame dicts of input values
    frame: int
    output: str
    golden_value: int
    candidate_value: int

    def to_dict(self) -> dict:
        return {
            "input_trace": [dict(v) for v in self.input_trace],
            "frame": self.frame,
            "output": self.output,
            "golden_value": self.golden_value,
            "candidate_value": self.candidate_value,
        }


@dataclass(frozen=True)
class SecVerdict:
    passed: bool
    mode: str
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class EvalResult:
    metrics: PpaMetrics
    sec_pass: bool
    sec_mode: str
    timing_report: TimingReport
    backend_id: str

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics.to_dict(),
            "sec_pass": self.sec_pass,
            "sec_mode": self.sec_mode,
            "timing_report": self.timing_report.to_dict(),
            "backend_id": self.backend_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalResult":
        return cls(PpaMetrics.from_dict(d["metrics"]), d["sec_pass"], d["sec_mode"],
                   TimingReport.from_dict(d["timing_report"]), d["backend_id"])


@dataclass(frozen=True)
class ExternalConfig:
    synth_command_template: str
    sec_command_template: str = ""
    metric_patterns: dict = field(default_factory=dict)  # name -> regex with one group
    report_files: tuple = ()
    timeout_s: float = EXTERNAL_TIMEOUT_S


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "builtin"  # "builtin" | "external"
    clock_period: float | None = None  # None -> per-kind default
    external: ExternalConfig | None = None

    def __post_init__(self):
        if self.clock_period is None:
            default = (EXTERNAL_DEFAULT_CLOCK_NS if self.kind == "external"
                       else DEFAULT_CLOCK_NS)
            object.__setattr__(self, "clock_period", default)
        if self.clock_period <= 0:
            raise ValueError("clock_period must be > 0")
        if self.kind not in ("builtin", "external"):
            raise ValueError(f"unknown backend kind {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "BackendConfig":
        if d.get("external") is not None:
            d = {**d, "external": ExternalConfig(**d["external"])}
        return cls(**d)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "clock_period": self.clock_period}
        if self.external is not None:
            d["external"] = {
                "synth_command_template": self.external.synth_command_template,
                "sec_command_template": self.external.sec_command_template,
                "metric_patterns": dict(self.external.metric_patterns),
                "report_files": list(self.external.report_files),
                "timeout_s": self.external.timeout_s,
            }
        return d


# --- builtin static timing analysis ---------------------------------------


def _arrival(expr: Expr, net_arrivals: dict[str, float],
             net_paths: dict[str, list[Stage]], filename: str,
             reg_names: frozenset[str]) -> tuple[float, list[Stage]]:
    """Longest arrival through an expression and its stage list."""
    if expr.kind == "const":
        return 0.0, []
    if expr.kind == "var":
        if expr.name in net_arrivals and expr.name not in reg_names:
            return net_arrivals[expr.name], list(net_paths[expr.name])
        # input port or register output: path starts here
        return 0.0, [Stage(node=expr.name, op="startpoint", delay_ns=0.0,
                           file=filename, line=expr.loc[0], col=expr.loc[1])]
    best = (0.0, [])
    for arg in expr.args:
        cand = _arrival(arg, net_arrivals, net_paths, filename, reg_names)
        if cand[0] > best[0] or (cand[0] == best[0] and not best[1]):
            best = cand
    delay = node_delay_ns(expr.kind, _operand_width(expr))
    line, col = expr.loc
    stage = Stage(node=f"{expr.kind}_{line}_{col}", op=expr.kind, delay_ns=delay,
                  file=filename, line=line, col=col, width=_operand_width(expr))
    return best[0] + delay, best[1] + [stage]


def synthesize(design: RtlDesign, config: BackendConfig) -> tuple[PpaMetrics, TimingReport]:
    if config.kind == "external":
        return ExternalBackend(config).synthesize(design)
    return _builtin_synthesize(design, config.clock_period)


def _builtin_synthesize(design: RtlDesign, clock_ns: float) -> tuple[PpaMetrics, TimingReport]:
    filename = design.filename
    reg_names = design.register_names()
    net_arrivals: dict[str, float] = {}
    net_paths: dict[str, list[Stage]] = {}
    for assign in topo_order(design):
        arrival, stages = _arrival(assign.expr, net_arrivals, net_paths, filename, reg_names)
        net_arrivals[assign.target] = arrival
        net_paths[assign.target] = stages

    paths = []
    endpoints: list[tuple[str, Expr]] = [(p.name, None) for p in design.output_ports]
    for name, _ in endpoints:
        arrival = net_arrivals.get(name, 0.0)
        stages = net_paths.get(name, [])
        paths.append(_make_path(name, arrival, stages, clock_ns))
    for reg in design.registers:
        arrival, stages = _arrival(reg.next, net_arrivals, net_paths, filename, reg_names)
        paths.append(_make_path(reg.name, arrival, stages, clock_ns))

    paths.sort(key=lambda p: (p.slack_ns, p.endpoint))
    report = TimingReport(clock_ns=clock_ns, endpoints=tuple(paths))

    slacks = [p.slack_ns for p in paths]
    wns = min(slacks) if slacks else clock_ns - (CLK_TO_Q_NS + SETUP_NS)
    tns = sum(min(s, 0.0) for s in slacks)

    area = float(sum(REGISTER_AREA_PER_BIT * r.width for r in design.registers))
    for _, expr in design.all_exprs():
        for node in expr.walk():
            area += node_area(node.kind, _operand_width(node))

    return PpaMetrics(wns=wns, tns=tns, area=area), report


def _make_path(endpoint: str, arrival: float, stages: list[Stage],
               clock_ns: float) -> TimingPath:
    delay = CLK_TO_Q_NS + arrival + SETUP_NS
    slack = clock_ns - delay
    if stages and stages[0].op == "startpoint":
        startpoint = stages[0].node
        op_stages = tuple(stages[1:])
    else:
        startpoint = endpoint
        op_stages = tuple(stages)
    return TimingPath(startpoint=startpoint, endpoint=endpoint,
                      slack_ns=slack, stages=op_stages)


# --- sequential equivalence checking --------------------------------------


def check_equivalence(golden: RtlDesign, candidate: RtlDesign,
                      config: BackendConfig) -> SecVerdict:
    """Compare output traces of both designs from the zero state.

    F = max register count + 2 frames. When total input bits x F fits the
    enumeration budget, every input sequence is checked; otherwise a fixed-
    seed random sample is used. Latency differences show up as first-frame
    mismatches and fail like any other difference.
    """
    if golden.port_signature() != candidate.port_signature():
        raise PortInterfaceMismatch(
            f"port interfaces differ: {golden.port_signature()} vs "
            f"{candidate.port_signature()}")

    if config.kind == "external":
        return _external_sec(golden, candidate, config)

    frames = max(len(golden.registers), len(candidate.registers)) + 2
    inputs = golden.input_ports
    total_bits = sum(p.width for p in inputs) * frames

    if total_bits <= SEC_EXHAUSTIVE_BUDGET_BITS:
        mode = SEC_EXHAUSTIVE
        n = 1 << total_bits
        seq = np.arange(n, dtype=np.uint64)
        input_arrays = []
        offset = 0
        for frame in range(frames):
            vec = {}
            for p in inputs:
                vec[p.name] = (seq >> np.uint64(offset)) & np.uint64((1 << p.width) - 1)
                offset += p.width
            input_arrays.append(vec)
    else:
        mode = SEC_BOUNDED
        rng = np.random.default_rng(SEC_SAMPLE_SEED)
        n = SEC_SAMPLE_COUNT
        input_arrays = []
        for frame in range(frames):
            vec = {}
            for p in inputs:
                high = 1 << p.width
                vec[p.name] = rng.integers(0, high, size=n, dtype=np.uint64)
            input_arrays.append(vec)

    golden_traces = CompiledDesign(golden).run(input_arrays, frames)
    candidate_traces = CompiledDesign(candidate).run(input_arrays, frames)

    for frame in range(frames):
        for port in golden.output_ports:
            g = golden_traces[frame][port.name]
            c = candidate_traces[frame][port.name]
            mismatch = np.nonzero(g != c)[0]
            if mismatch.size:
                i = int(mismatch[0])
                trace = tuple(
                    {p.name: int(input_arrays[f][p.name][i]) for p in inputs}
                    for f in range(frames)
                )
                return SecVerdict(False, mode, Counterexample(
                    input_trace=trace, frame=frame, output=port.name,
                    golden_value=int(np.atleast_1d(g)[i]),
                    candidate_value=int(np.atleast_1d(c)[i])))
    return SecVerdict(True, mode)


def evaluate(design: RtlDesign, golden: RtlDesign | None,
             config: BackendConfig) -> EvalResult:
    """Synthesize plus (optionally) check equivalence against the golden."""
    metrics, report = synthesize(design, config)
    if golden is None:
        return EvalResult(metrics, True, SEC_SKIPPED_BASELINE, report, config.kind)
    verdict = check_equivalence(golden, design, config)
    return EvalResult(metrics, verdict.passed, verdict.mode, report, config.kind)


def _external_sec(golden: RtlDesign, candidate: RtlDesign,
                  config: BackendConfig) -> SecVerdict:
    """Run the configured SEC command; pass iff it exits 0.

    A timeout or nonzero exit is conservatively a failed check.
    """
    ext = config.external
    if ext is None or not ext.sec_command_template:
        raise BackendError("external backend has no sec_command_template")
    with tempfile.TemporaryDirectory(prefix="rtlopt-sec-") as design_dir:
        with open(os.path.join(design_dir, "golden.rtl"), "w") as fh:
            fh.write(golden.source)
        with open(os.path.join(design_dir, "candidate.rtl"), "w") as fh:
            fh.write(candidate.source)
        try:
            run = run_external(
                ext.sec_command_template,
                {"design_dir": design_dir, "top": golden.name,
                 "clock_ns": config.clock_period},
                workdir=design_dir, timeout_s=ext.timeout_s)
        except subprocess.TimeoutExpired:
            return SecVerdict(False, SEC_EXTERNAL)
    return SecVerdict(run.exit_status == 0, SEC_EXTERNAL)


# --- external command adapter ---------------------------------------------


@dataclass
class ExternalRun:
    exit_status: int
    stdout: str
    stderr: str
    reports: dict


class MissingPlaceholder(BackendError):
    pass


def run_external(template: str, substitutions: dict, *, workdir: str | None = None,
                 timeout_s: float = EXTERNAL_TIMEOUT_S,
                 report_files: tuple = ()) -> ExternalRun:
    """Substitute and execute a toolchain command in an isolated directory.

    The command's outputs are captured verbatim; nothing here interprets
    them. Unresolvable placeholders are a configuration error raised before
    anything runs. Without a ``workdir`` the command runs in a temporary
    directory that is removed once its report files are read.
    """
    try:
        command = template.format(**substitutions)
    except KeyError as exc:
        raise MissingPlaceholder(f"missing placeholder {exc.args[0]!r} in {template!r}") from exc

    scratch = (nullcontext(workdir) if workdir is not None
               else tempfile.TemporaryDirectory(prefix="rtlopt-ext-"))
    with scratch as cwd:
        proc = subprocess.run(
            command, shell=True, cwd=cwd, capture_output=True, text=True,
            timeout=timeout_s,
        )
        reports = {}
        for rel in report_files:
            path = os.path.join(cwd, rel.format(**substitutions))
            if os.path.exists(path):
                with open(path) as fh:
                    reports[rel] = fh.read()
    return ExternalRun(proc.returncode, proc.stdout, proc.stderr, reports)


class ExternalBackend:
    """Adapter for real synthesis/SEC flows driven by shell templates."""

    def __init__(self, config: BackendConfig):
        if config.external is None:
            raise BackendError("external backend requires backend.external config")
        self.config = config
        self.ext = config.external

    def _substitutions(self, design: RtlDesign, design_dir: str) -> dict:
        return {"design_dir": design_dir, "top": design.name,
                "clock_ns": self.config.clock_period}

    def synthesize(self, design: RtlDesign) -> tuple[PpaMetrics, TimingReport]:
        with tempfile.TemporaryDirectory(prefix="rtlopt-synth-") as design_dir:
            with open(os.path.join(design_dir, f"{design.name}.rtl"), "w") as fh:
                fh.write(design.source)
            run = run_external(self.ext.synth_command_template,
                              self._substitutions(design, design_dir),
                              workdir=design_dir, timeout_s=self.ext.timeout_s,
                              report_files=self.ext.report_files)
        if run.exit_status != 0:
            raise BackendError(
                f"synthesis exited {run.exit_status}: {run.stderr[-500:]}")
        haystack = run.stdout + "\n" + "\n".join(run.reports.values())
        values = {}
        for key in ("wns", "tns", "area"):
            pattern = self.ext.metric_patterns.get(key)
            if pattern is None:
                raise BackendError(f"no extraction pattern configured for {key!r}")
            m = re.search(pattern, haystack, re.MULTILINE)
            if m is None:
                raise BackendError(f"extraction pattern for {key!r} matched nothing")
            values[key] = float(m.group(1))
        metrics = PpaMetrics(values["wns"], values["tns"], values["area"])
        # External reports are normalized to an endpoint-less report unless the
        # flow populates the canonical JSON schema itself.
        report_json = run.reports.get("timing_report.json")
        if report_json is not None:
            report = TimingReport.from_dict(json.loads(report_json))
        else:
            report = TimingReport(self.config.clock_period, ())
        return metrics, report
