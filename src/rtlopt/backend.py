"""Evaluation backends: builtin synthesis-free oracle and external adapter.

The builtin backend computes endpoint delays by longest-path traversal of
the expression DAG with a fixed delay/area table, and checks sequential
equivalence by comparing normal forms of register-free designs, then by
exhaustive or seeded-random co-simulation from the zero state. The external
backend runs a user-configured toolchain's synthesis and SEC commands through
:func:`run_external` and extracts metrics with named regex patterns; it never
interprets reports. An external config is checked when it is built.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import string
import subprocess
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .dsl import CompiledDesign, Expr, RtlDesign, output_forms, topo_order, uint_dtype
from .records import Record, Settings
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
# Stimulus and golden traces are built, and candidates simulated, this many
# sequences at a time (after the directed rows, a chunk of their own); a
# failing check stops at the first chunk with a mismatch, and no chunk is
# built before a check reaches it. At this size a passing 60x32 chain check
# costs about what one unchunked pass does; at 4k chunks it cost up to 2x.
SEC_CHUNK = 16_384

SEC_SYMBOLIC = "symbolic"
SEC_EXHAUSTIVE = "exhaustive"
SEC_BOUNDED = "bounded-sampled"
SEC_EXTERNAL = "external"

EXTERNAL_TIMEOUT_S = 3600.0
# What an external flow reports, and what its templates may name.
METRIC_KEYS = ("wns", "tns", "area")
PLACEHOLDERS = ("design_dir", "top", "clock_ns")


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
class PpaMetrics(Record):
    wns: float   # ns; negative when violated, positive when met
    tns: float   # ns; sum of negative endpoint slacks, always <= 0
    area: float  # area units


@dataclass(frozen=True)
class Counterexample:
    input_trace: tuple       # per-frame dicts of input values
    frame: int
    output: str
    golden_value: int
    candidate_value: int


@dataclass(frozen=True)
class SecVerdict:
    passed: bool
    mode: str
    counterexample: Counterexample | None = None


@dataclass(frozen=True)
class EvalResult(Record):
    """A candidate's stored outcome; ``evaluate`` returns its report beside it."""
    metrics: PpaMetrics
    sec_pass: bool
    sec_mode: str


@dataclass(frozen=True)
class ExternalConfig(Settings):
    synth_command_template: str
    sec_command_template: str = ""
    metric_patterns: dict = field(default_factory=dict)  # wns/tns/area -> regex, a group
    report_files: tuple[str, ...] = ()
    timeout_s: float = EXTERNAL_TIMEOUT_S

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("external.timeout_s must be > 0")
        unknown = self.metric_patterns.keys() - set(METRIC_KEYS)
        if unknown:
            raise TypeError(f"external.metric_patterns: unknown keys {sorted(unknown)}")
        for key in METRIC_KEYS:
            if key not in self.metric_patterns:
                raise ValueError(f"external.metric_patterns has no pattern for {key!r}")
            if not isinstance(self.metric_patterns[key], str):
                raise TypeError(f"external.metric_patterns[{key!r}] must be a string")
            try:
                groups = re.compile(self.metric_patterns[key]).groups
            except re.error as exc:
                raise ValueError(f"external.metric_patterns[{key!r}]: {exc}") from None
            if groups < 1:
                raise ValueError(f"external.metric_patterns[{key!r}] has no group")
        for template in (self.synth_command_template, self.sec_command_template,
                         *self.report_files):
            names = {name for _, name, _, _ in string.Formatter().parse(template)}
            unknown = sorted(names - {None, *PLACEHOLDERS})
            if unknown:
                raise ValueError(f"unknown placeholder {{{unknown[0]}}} in {template!r}; "
                                 f"known: {', '.join(PLACEHOLDERS)}")
            try:  # fails as a run would, on a placeholder nested in a format spec too
                template.format(design_dir="", top="", clock_ns=1.0)
            except (KeyError, IndexError) as exc:
                raise ValueError(f"bad placeholder in {template!r}: {exc}") from None


@dataclass(frozen=True)
class BackendConfig(Settings):
    """The builtin backend, or the external one when ``external`` is given."""
    clock_period: float | None = None  # None -> the backend's default
    external: ExternalConfig | None = None

    def __post_init__(self):
        if self.clock_period is None:
            default = (EXTERNAL_DEFAULT_CLOCK_NS if self.external is not None
                       else DEFAULT_CLOCK_NS)
            object.__setattr__(self, "clock_period", default)
        if self.clock_period <= 0:
            raise ValueError("clock_period must be > 0")


# --- builtin static timing analysis ---------------------------------------


def _arrival(expr: Expr, locs: tuple[tuple[int, int], ...],
             nets: dict[str, tuple]) -> tuple[float, tuple | None, float]:
    """Longest arrival through a statement's expression, its path and the
    expression's area; ``locs`` are the statement's node locations, ``nets``
    the arrivals and paths of earlier nets. A path is a cons cell ``((node,
    line, col), rest)`` ending in None, its last node first and a startpoint's
    ``var`` node, if any, last; a path shares its cells with the one it extends."""
    occurrences = iter(locs)
    area = 0.0

    def visit(node: Expr, args: list[tuple[float, tuple | None]]):
        nonlocal area
        line, col = next(occurrences, (0, 0))
        if node.kind == "const":
            return 0.0, None
        if node.kind == "var":  # a net, or an input port or register output
            return nets.get(node.name) or (0.0, ((node, line, col), None))
        best = (0.0, None)
        for cand in args:
            if cand[0] > best[0] or (cand[0] == best[0] and best[1] is None):
                best = cand
        width = _operand_width(node)
        area += node_area(node.kind, width)
        return best[0] + node_delay_ns(node.kind, width), ((node, line, col), best[1])

    return (*expr.fold(visit), area)


def synthesize(design: RtlDesign, config: BackendConfig) -> tuple[PpaMetrics, TimingReport]:
    if config.external is not None:
        return _external_synthesize(design, config)
    return _builtin_synthesize(design, config.clock_period)


def _builtin_synthesize(design: RtlDesign, clock_ns: float) -> tuple[PpaMetrics, TimingReport]:
    """Arrivals are computed forward in topological order; ``Stage`` records
    are built only for the path each endpoint reports. Every area term is a
    whole number, so summing it per statement is exact."""
    area = float(sum(REGISTER_AREA_PER_BIT * r.width for r in design.registers))
    nets: dict[str, tuple] = {}
    for assign in topo_order(design):
        arrival, path, expr_area = _arrival(assign.expr, assign.locs, nets)
        nets[assign.target] = arrival, path
        area += expr_area
    paths = [_make_path(p.name, *nets.get(p.name, (0.0, None)), clock_ns, design.filename)
             for p in design.output_ports]
    for reg in design.registers:
        arrival, path, expr_area = _arrival(reg.next, reg.locs, nets)
        area += expr_area
        paths.append(_make_path(reg.name, arrival, path, clock_ns, design.filename))

    paths.sort(key=lambda p: (p.slack_ns, p.endpoint))
    report = TimingReport(clock_ns=clock_ns, endpoints=tuple(paths))

    slacks = [p.slack_ns for p in paths]
    wns = min(slacks) if slacks else clock_ns - (CLK_TO_Q_NS + SETUP_NS)
    tns = sum(min(s, 0.0) for s in slacks)
    return PpaMetrics(wns=wns, tns=tns, area=area), report


def _make_path(endpoint: str, arrival: float, path: tuple | None,
               clock_ns: float, filename: str) -> TimingPath:
    steps = []
    while path is not None:
        step, path = path
        steps.append(step)
    steps.reverse()
    startpoint = steps.pop(0)[0].name if steps and steps[0][0].kind == "var" else endpoint
    stages = tuple(Stage(node=f"{node.kind}_{line}_{col}", op=node.kind,
                         delay_ns=node_delay_ns(node.kind, _operand_width(node)),
                         file=filename, line=line, col=col, width=_operand_width(node))
                   for node, line, col in steps)
    return TimingPath(startpoint=startpoint, endpoint=endpoint,
                      slack_ns=clock_ns - (CLK_TO_Q_NS + arrival + SETUP_NS), stages=stages)


# --- sequential equivalence checking --------------------------------------


class _Reference:
    """Stimulus and golden output traces for one frame count, as chunks of
    input sequences built in order when a check first reaches them.

    Exhaustive mode decodes every sequence number, SEC_CHUNK to a chunk. In
    bounded mode chunk 0 is the directed rows, and each later chunk holds
    SEC_CHUNK sampled sequences (the last one the rest of SEC_SAMPLE_COUNT)
    drawn from this reference's generator chunk by chunk, frame by frame,
    port by port. Building chunk k builds every chunk before it, so a
    chunk's rows do not depend on which check asked for it. The golden is
    compiled once and simulated on each chunk as it is built. Every vector
    is in uint_dtype of its port's width.
    """

    def __init__(self, golden: RtlDesign, frames: int):
        self.frames, self.ports = frames, golden.input_ports
        self.compiled, self.constants = CompiledDesign(golden), _constants(golden)
        self.chunks: list[tuple[list, list]] = []  # (inputs, golden outputs) per chunk
        bits = sum(p.width for p in self.ports) * frames
        if bits <= SEC_EXHAUSTIVE_BUDGET_BITS:
            self.mode, self.rng, self.rows = SEC_EXHAUSTIVE, None, 1 << bits
            head = min(SEC_CHUNK, self.rows)
        else:
            self.mode, self.rng = SEC_BOUNDED, np.random.default_rng(SEC_SAMPLE_SEED)
            self.directed = _directed(self.ports, self.constants, frames)
            head = len(self.directed[0][self.ports[0].name])
            self.rows = head + SEC_SAMPLE_COUNT
        self.edges = [0, *range(head, self.rows, SEC_CHUNK), self.rows]

    def _inputs(self, lo: int, hi: int) -> list[dict[str, np.ndarray]]:
        if self.mode == SEC_BOUNDED and lo == 0:
            return self.directed
        seq = np.arange(lo, hi, dtype=np.uint64) if self.mode == SEC_EXHAUSTIVE else None
        offset, out = 0, []
        for _ in range(self.frames):
            out.append({})
            for p in self.ports:
                if seq is not None:  # decode the sequence numbers
                    vec = (seq >> np.uint64(offset)) & np.uint64((1 << p.width) - 1)
                else:  # always drawn as uint64, then narrowed: the dtype selects the stream
                    vec = self.rng.integers(0, 1 << p.width, size=hi - lo, dtype=np.uint64)
                out[-1][p.name] = vec.astype(uint_dtype(p.width))
                offset += p.width
        return out

    def chunk(self, k: int) -> tuple[list, list]:
        """Chunk k's per-frame input vectors and golden output vectors."""
        while len(self.chunks) <= k:
            built = len(self.chunks)
            inputs = self._inputs(self.edges[built], self.edges[built + 1])
            self.chunks.append((inputs, self.compiled.run(inputs, self.frames)))
        return self.chunks[k]

    def walk(self, candidate: RtlDesign):
        """Every chunk in order for one check of ``candidate``. In bounded
        mode, when the candidate has constants the golden lacks, one more
        chunk follows chunk 0: it walks every input through each of them
        -1/+0/+1, and it is built for this check alone."""
        yield self.chunk(0)
        extra = _constants(candidate) - self.constants if self.mode == SEC_BOUNDED else ()
        if extra:
            inputs = _directed(self.ports, extra, self.frames, corners=False)
            yield inputs, self.compiled.run(inputs, self.frames)
        for k in range(1, len(self.edges) - 1):
            yield self.chunk(k)


class GoldenSec:
    """Per-run SEC context: the golden design's normal forms, and its
    stimulus and output traces per frame count.

    None of them depends on the candidate: the output forms are computed on
    the first check of a register-free candidate, and a frame count's
    reference on the first check that simulates; each chunk of it is built
    by the first check that reaches that chunk. All are shared by every
    check against this golden. The golden's forms stay in ``Expr``'s intern
    table as long as the context; a candidate's go with its check. Neither
    this nor building an ``Expr`` is thread-safe: checks run one by one on
    the loop's thread. If threads come back, so does a lock.
    """

    def __init__(self, golden: RtlDesign):
        self.golden = golden
        self._by_frames: dict[int, _Reference] = {}
        self._golden_forms: tuple[Expr, ...] | None = None

    def proves(self, candidate: RtlDesign) -> bool:
        """True when neither design has registers and every output of the
        candidate has the golden's normal form, which proves equivalence.
        False proves nothing."""
        if self.golden.registers or candidate.registers:
            return False
        if self._golden_forms is None:
            self._golden_forms = output_forms(self.golden)
        return output_forms(candidate) == self._golden_forms

    def reference(self, frames: int) -> _Reference:
        if frames not in self._by_frames:
            self._by_frames[frames] = _Reference(self.golden, frames)
        return self._by_frames[frames]


def _constants(design: RtlDesign) -> set[int]:
    return {node.value for _, expr in design.all_exprs() for node in expr.walk()
            if node.kind == "const"}


def _directed(ports: list, constants: set[int], frames: int,
              corners: bool = True) -> list[dict[str, np.ndarray]]:
    """Per-frame input vectors of sequences that random samples rarely draw.

    Each input's values are every constant -1/+0/+1 and, with ``corners``,
    0, 1, all-ones and MSB-only. "Packed" sequences walk every input through
    its values in step, one value per frame; with ``corners``, four "hold"
    sequences follow that keep all inputs at 0, 1, all-ones or MSB-only for
    every frame. Each vector is in uint_dtype of its port's width.
    """
    values, holds = {}, {}
    for p in ports:
        mask = (1 << p.width) - 1
        holds[p.name] = [0, 1, mask, 1 << (p.width - 1)] if corners else []
        near = {(c + d) & mask for c in constants for d in (-1, 0, 1)}
        values[p.name] = sorted({*holds[p.name], *near})
    starts = range(0, max(len(v) for v in values.values()), frames)
    return [{p.name: np.array([values[p.name][(s + f) % len(values[p.name])] for s in starts]
                              + holds[p.name], dtype=uint_dtype(p.width)) for p in ports}
            for f in range(frames)]


def check_equivalence(golden: RtlDesign, candidate: RtlDesign,
                      config: BackendConfig, sec: GoldenSec | None = None) -> SecVerdict:
    """Check that both designs give the same output traces from the zero state.

    When neither design has registers and their normal forms are equal, the
    verdict is a ``symbolic`` pass, a proof that needs no stimulus.
    Otherwise the designs are co-simulated by :func:`simulate_equivalence`,
    whose verdicts (failures and their counterexamples included) do not
    depend on the normal forms. ``sec`` is the run's context for
    ``golden``; without one, everything is built for this check alone.
    """
    if golden.port_signature() != candidate.port_signature():
        raise PortInterfaceMismatch(
            f"port interfaces differ: {golden.port_signature()} vs "
            f"{candidate.port_signature()}")

    if config.external is not None:
        return _external_sec(golden, candidate, config)

    if sec is None:
        sec = GoldenSec(golden)
    assert sec.golden is golden, "SEC context was built for another golden design"
    if sec.proves(candidate):
        return SecVerdict(True, SEC_SYMBOLIC)
    return simulate_equivalence(golden, candidate, sec)


def simulate_equivalence(golden: RtlDesign, candidate: RtlDesign,
                         sec: GoldenSec | None = None) -> SecVerdict:
    """Compare output traces of both designs from the zero state by
    co-simulation; the ports must match.

    F = max register count + 2 frames. When total input bits x F fits the
    enumeration budget, every input sequence is checked; otherwise directed
    corner cases and a fixed-seed random sample are. Latency differences
    show up as first-frame mismatches and fail like any other difference.
    ``sec`` is the run's context for ``golden``; without one the stimulus
    and golden traces are built for this check alone. The candidate is
    simulated one chunk of the reference at a time, and the check stops at
    the first chunk with a mismatch, so later chunks are never built for it.
    """
    if sec is None:
        sec = GoldenSec(golden)
    assert sec.golden is golden, "SEC context was built for another golden design"
    frames = max(len(golden.registers), len(candidate.registers)) + 2
    ref = sec.reference(frames)
    compiled = CompiledDesign(candidate)
    for inputs, outputs in ref.walk(candidate):
        got = compiled.run(inputs, frames)
        for frame in range(frames):
            for port in golden.output_ports:
                g, c = outputs[frame][port.name], got[frame][port.name]
                mismatch = np.flatnonzero(g != c)
                if mismatch.size:
                    i = int(mismatch[0])
                    trace = tuple(
                        {p.name: int(inputs[f][p.name][i]) for p in golden.input_ports}
                        for f in range(frames)
                    )
                    return SecVerdict(False, ref.mode, Counterexample(
                        input_trace=trace, frame=frame, output=port.name,
                        golden_value=int(g[i]), candidate_value=int(c[i])))
    return SecVerdict(True, ref.mode)


def evaluate(design: RtlDesign, config: BackendConfig,
             sec: GoldenSec) -> tuple[EvalResult, TimingReport]:
    """Synthesize, then check equivalence against the SEC context's golden."""
    metrics, report = synthesize(design, config)
    verdict = check_equivalence(sec.golden, design, config, sec)
    return EvalResult(metrics, verdict.passed, verdict.mode), report


# --- external toolchain ----------------------------------------------------


def run_external(template: str, top: str, config: BackendConfig,
                 design_files: dict[str, str]) -> tuple[subprocess.CompletedProcess, dict]:
    """Run one toolchain command in a fresh directory holding ``design_files``,
    under ``external.timeout_s`` (``subprocess.TimeoutExpired`` on expiry).

    The directory's path, ``top`` and the clock period fill the placeholders.
    Output and existing report files are decoded as UTF-8, an invalid byte
    becoming a replacement character, and are not interpreted here. The
    command runs in its own session, so a timeout kills everything it
    started, not only the shell. The directory is removed before this
    returns or raises."""
    ext = config.external
    with tempfile.TemporaryDirectory(prefix="rtlopt-ext-") as design_dir:
        for name, text in design_files.items():
            with open(os.path.join(design_dir, name), "w") as fh:
                fh.write(text)
        values = {"design_dir": design_dir, "top": top, "clock_ns": config.clock_period}
        with subprocess.Popen(template.format(**values), shell=True, cwd=design_dir,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              encoding="utf-8", errors="replace",
                              start_new_session=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=ext.timeout_s)
            except subprocess.TimeoutExpired:
                # Leaving the block waits for the shell, so the directory
                # outlives every process of the group.
                os.killpg(child.pid, signal.SIGKILL)
                raise
        proc = subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)
        reports = {}
        for rel in ext.report_files:
            path = os.path.join(design_dir, rel.format(**values))
            if os.path.exists(path):
                with open(path, encoding="utf-8", errors="replace") as fh:
                    reports[rel] = fh.read()
    return proc, reports


def _external_synthesize(design: RtlDesign,
                         config: BackendConfig) -> tuple[PpaMetrics, TimingReport]:
    """Run the synthesis command on ``{top}.rtl`` and extract the metrics."""
    ext = config.external
    try:
        proc, reports = run_external(ext.synth_command_template, design.name, config,
                                     {f"{design.name}.rtl": design.source})
    except subprocess.TimeoutExpired:
        raise BackendError(f"synthesis timed out after {ext.timeout_s:g} s") from None
    if proc.returncode != 0:
        tail = " ".join(proc.stderr[-500:].split())  # one line, as every error is
        raise BackendError(f"synthesis exited {proc.returncode}: {tail}")
    haystack = proc.stdout + "\n" + "\n".join(reports.values())
    values = {}
    for key in METRIC_KEYS:
        m = re.search(ext.metric_patterns[key], haystack, re.MULTILINE)
        if m is None:
            raise BackendError(f"extraction pattern for {key!r} matched nothing")
        try:
            values[key] = float(m.group(1))
        except ValueError:
            raise BackendError(f"extraction pattern for {key!r} matched "
                               f"{m.group(1)!r}, not a number") from None
    metrics = PpaMetrics(**values)
    # External reports are normalized to an endpoint-less report unless the
    # flow populates the canonical JSON schema itself.
    report_json = reports.get("timing_report.json")
    if report_json is None:
        return metrics, TimingReport(config.clock_period, ())
    try:
        return metrics, TimingReport.from_dict(json.loads(report_json))
    except (ValueError, TypeError) as exc:
        raise BackendError(
            f"timing_report.json is not in the interchange schema: {exc!r}") from exc


def _external_sec(golden: RtlDesign, candidate: RtlDesign,
                  config: BackendConfig) -> SecVerdict:
    """Run the SEC command on ``golden.rtl`` and ``candidate.rtl``; pass iff it
    exits 0, so a timeout or nonzero exit is conservatively a failed check."""
    ext = config.external
    if not ext.sec_command_template:
        raise BackendError("external backend has no sec_command_template")
    try:
        proc, _ = run_external(ext.sec_command_template, golden.name, config,
                               {"golden.rtl": golden.source,
                                "candidate.rtl": candidate.source})
    except subprocess.TimeoutExpired:
        return SecVerdict(False, SEC_EXTERNAL)
    return SecVerdict(proc.returncode == 0, SEC_EXTERNAL)
