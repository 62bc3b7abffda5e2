"""Critical-path selection, path-to-RTL mapping, and root-cause diagnosis.

This module only analyzes and labels; it never edits a design. The report
types here are also the canonical interchange schema that external tool
adapters must normalize into:

    {clock_ns, endpoints: [{startpoint, endpoint, slack_ns,
                            stages: [{node, op, delay_ns, width?,
                                      loc: {file, line, col?}}]}]}

where a stage's ``width`` (default 1) and ``col`` (default 0) may be absent.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from .dsl import Expr, RtlDesign, reference_counts, topo_order
from .records import Record, Settings

# Diagnosis root cause -> skill-library pattern id.
ROOT_CAUSE_PATTERN = {
    "wide-arithmetic": "wide-arithmetic",
    "wide-compare": "wide-comparison",
    "mux-cascade": "mux-heavy-selection",
    "high-fanout": "high-fanout-control",
    "control-data-coupling": "control-data-coupling",
    "reconvergent": "reconvergent-logic",
    "excessive-depth": "excessive-depth",
}

# Rule thresholds; chosen to make the qualitative causes testable.
WIDE_ARITH_WIDTH = 16
WIDE_ARITH_CHAIN_WIDTH = 8
WIDE_ARITH_CHAIN_LEN = 2
WIDE_COMPARE_CHAIN = 3
MUX_CASCADE_LEN = 3
HIGH_FANOUT = 8
COUPLING_DATA_WIDTH = 8
DEPTH_LIMIT = 6


@dataclass(frozen=True)
class Stage(Settings):
    node: str
    op: str
    delay_ns: float
    file: str
    line: int
    col: int = 0
    width: int = 1

    def to_dict(self) -> dict:
        return {"node": self.node, "op": self.op, "delay_ns": self.delay_ns,
                "width": self.width,
                "loc": {"file": self.file, "line": self.line, "col": self.col}}

    @classmethod
    def from_dict(cls, d: dict) -> "Stage":
        """Decode the interchange form, whose ``loc`` holds file, line and col."""
        loc = d.get("loc") if isinstance(d, dict) else None
        if not isinstance(loc, dict):
            raise TypeError("Stage must be an object with a loc object")
        misplaced = d.keys() & {"file", "line", "col"} | loc.keys() - {"file", "line", "col"}
        if misplaced:  # a stage key on the wrong level is off-schema too
            raise TypeError(f"Stage: unknown keys {sorted(misplaced)}")
        return super().from_dict({k: v for k, v in d.items() if k != "loc"} | loc)


@dataclass(frozen=True)
class TimingPath(Record):
    startpoint: str
    endpoint: str
    slack_ns: float
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class TimingReport(Record):
    clock_ns: float
    endpoints: tuple[TimingPath, ...]  # sorted ascending by slack


@dataclass(frozen=True)
class RtlRegion(Record):
    file: str
    start_line: int
    end_line: int
    confidence: str  # "exact" | "heuristic" | "heuristic-failed"


@dataclass(frozen=True)
class BottleneckDiagnosis(Record):
    path: TimingPath
    pattern: str
    root_cause: str
    rtl_region: RtlRegion
    evidence: str


def select_critical_paths(report: TimingReport, k: int) -> list[TimingPath]:
    """Top-k endpoints by ascending slack; ties broken by endpoint name."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(report.endpoints, key=lambda p: (p.slack_ns, p.endpoint))
    return ranked[:k]


_SYNTH_SUFFIXES = ("_reg", "_q")


def _name_tokens(name: str) -> list[str]:
    name = re.sub(r"\[\d+\]$", "", name)
    for suffix in _SYNTH_SUFFIXES:
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return [name] if name else []


def map_path_to_rtl(path: TimingPath, design: RtlDesign) -> RtlRegion:
    """Locate the source region a path passes through.

    With per-stage source locations (builtin backend) the result is exact.
    Otherwise it falls back to token-matching the start/endpoint names
    against the source text.
    """
    filename = design.filename
    lines = [s.line for s in path.stages if s.line > 0]
    if lines and all(s.line > 0 for s in path.stages):
        return RtlRegion(filename, min(lines), max(lines), "exact")

    tokens = _name_tokens(path.startpoint) + _name_tokens(path.endpoint)
    matched_lines = []
    source_lines = design.source.splitlines()
    for token in tokens:
        pattern = re.compile(rf"\b{re.escape(token)}\b")
        for i, text in enumerate(source_lines, start=1):
            if pattern.search(text):
                matched_lines.append(i)
    if not matched_lines:
        return RtlRegion(filename, 1, max(len(source_lines), 1), "heuristic-failed")
    return RtlRegion(filename, min(matched_lines), max(matched_lines), "heuristic")


def _endpoint_cone(path: TimingPath, design: RtlDesign) -> Expr | None:
    """The expression ultimately driving the path's endpoint, if any."""
    for reg in design.registers:
        if reg.name == path.endpoint:
            return reg.next
    for assign in design.assigns:
        if assign.target == path.endpoint:
            return assign.expr
    return None


def _cone_var_counts(expr: Expr, design: RtlDesign) -> dict[str, int]:
    """Occurrences of each source signal in the full transitive cone.

    A wire contributes its own cone's counts at every reference. Every
    wire's cone is counted once, in topological order, so reconvergent
    ladders stay linear and a long wire chain needs no recursion.
    """
    memo: dict[str, Counter] = {}

    def count(e: Expr) -> Counter:
        counts = Counter()
        for node in e.walk():
            if node.kind == "var":  # a wire adds its cone's counts, a source itself
                counts.update(memo.get(node.name, (node.name,)))
        return counts

    for assign in topo_order(design):
        memo[assign.target] = count(assign.expr)
    return count(expr)


def diagnose(path: TimingPath, design: RtlDesign) -> BottleneckDiagnosis:
    """Label the likely root cause of a path's delay.

    Deterministic rules applied in priority order; always returns a
    diagnosis (excessive-depth is the fallback).
    """
    region = map_path_to_rtl(path, design)

    cone = _endpoint_cone(path, design)

    def result(cause: str, evidence: str) -> BottleneckDiagnosis:
        return BottleneckDiagnosis(path, ROOT_CAUSE_PATTERN[cause], cause, region, evidence)

    # 1. wide arithmetic: one genuinely wide op, or an arithmetic chain that
    #    dominates the path.
    arith = [s for s in path.stages if s.op in ("add", "sub", "lt")]
    wide = [s for s in arith if s.width >= WIDE_ARITH_WIDTH]
    if wide:
        return result("wide-arithmetic",
                      f"{wide[0].width}-bit {wide[0].op} stage at line {wide[0].line}")
    chain = [s for s in arith if s.op in ("add", "sub") and s.width >= WIDE_ARITH_CHAIN_WIDTH]
    if len(chain) >= WIDE_ARITH_CHAIN_LEN:
        return result("wide-arithmetic",
                      f"chain of {len(chain)} {chain[0].width}-bit add/sub stages")

    # 2. wide compare: many equality comparisons feeding one endpoint.
    if cone is not None:
        eq_count = sum(1 for n in cone.walk() if n.kind == "eq")
        if eq_count >= WIDE_COMPARE_CHAIN:
            return result("wide-compare", f"{eq_count} eq comparisons feed {path.endpoint}")

    # 3. mux cascade: consecutive mux stages along the path.
    run = best_run = 0
    for s in path.stages:
        run = run + 1 if s.op == "mux" else 0
        best_run = max(best_run, run)
    if best_run >= MUX_CASCADE_LEN:
        return result("mux-cascade", f"{best_run} consecutive mux stages")

    # 4. high fanout on any signal the path reads.
    fanout = reference_counts(design)
    path_signals = [path.startpoint]
    if cone is not None:
        path_signals.extend(sorted({n.name for n in cone.walk() if n.kind == "var"}))
    for name in path_signals:
        if fanout.get(name, 0) >= HIGH_FANOUT:
            return result("high-fanout", f"{name} fans out to {fanout[name]} sinks")

    # 5. 1-bit control gating a wide datapath op.
    for s in path.stages:
        if s.op == "mux" and s.width >= COUPLING_DATA_WIDTH:
            return result("control-data-coupling",
                          f"1-bit select gates {s.width}-bit mux at line {s.line}")

    # 6. reconvergence: the same source signal reaches the endpoint twice.
    if cone is not None:
        counts = _cone_var_counts(cone, design)
        reconv = sorted(name for name, c in counts.items() if c >= 2)
        if reconv:
            return result("reconvergent", f"{reconv[0]} reconverges in the cone of {path.endpoint}")

    # 7. depth fallback.
    depth = len(path.stages)
    if depth >= DEPTH_LIMIT:
        return result("excessive-depth", f"{depth} combinational stages")
    return result("excessive-depth", f"{depth} combinational stages (low severity)")
