"""Critical-path selection, RTL mapping, and diagnosis rules."""

import time

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.backend import synthesize
from rtlopt.timing import (
    Stage,
    TimingPath,
    TimingReport,
    diagnose,
    map_path_to_rtl,
    select_critical_paths,
)
from rtlopt.dsl import parse


def _path(endpoint, slack, startpoint="in", stages=()):
    return TimingPath(startpoint=startpoint, endpoint=endpoint,
                      slack_ns=slack, stages=tuple(stages))


def _report_of(source, bcfg):
    design = parse(source, "design.rtl")
    _, report = synthesize(design, bcfg)
    return design, report


def test_select_orders_by_slack_then_name():
    report = TimingReport(clock_ns=0.5, endpoints=(
        _path("b", -0.1), _path("a", -0.1), _path("c", -0.3), _path("d", 0.2),
    ))
    top = select_critical_paths(report, 3)
    assert [p.endpoint for p in top] == ["c", "a", "b"]
    assert len(select_critical_paths(report, 10)) == 4
    with pytest.raises(ValueError):
        select_critical_paths(report, 0)


def test_map_exact_from_stage_locations(bcfg):
    design, report = _report_of(CHAIN_ADDER_8, bcfg)
    path = select_critical_paths(report, 1)[0]
    region = map_path_to_rtl(path, design)
    assert region.confidence == "exact"
    assert region.file == "design.rtl"
    assert region.start_line == region.end_line == 2


def test_map_heuristic_token_match():
    design = parse("""\
module h(input [3:0] foo, output [3:0] bar);
  assign bar = foo + 4'd1;
endmodule
""", "h.rtl")
    path = _path("bar_reg[2]", -0.1, startpoint="foo_q")
    region = map_path_to_rtl(path, design)
    assert region.confidence == "heuristic"
    assert region.start_line == 1 and region.end_line == 2


def test_map_heuristic_failed_covers_whole_file():
    design = parse("module h(input a, output y); assign y = a; endmodule", "h.rtl")
    region = map_path_to_rtl(_path("u99", -0.1, startpoint="u98"), design)
    assert region.confidence == "heuristic-failed"
    assert region.start_line == 1


def test_diagnose_wide_arithmetic_single_wide_op(bcfg):
    design, report = _report_of("""\
module w(input [31:0] a, input [31:0] b, output [31:0] y);
  assign y = a + b;
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "wide-arithmetic"
    assert d.pattern == "wide-arithmetic"


def test_diagnose_wide_arithmetic_chain(bcfg):
    design, report = _report_of(CHAIN_ADDER_8, bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "wide-arithmetic"
    assert "chain" in d.evidence


def test_diagnose_wide_compare(bcfg):
    design, report = _report_of("""\
module c(input [3:0] op, output y);
  assign y = (op == 4'd1) | ((op == 4'd2) | (op == 4'd3));
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "wide-compare"
    assert d.pattern == "wide-comparison"


def test_diagnose_mux_cascade(bcfg):
    design, report = _report_of("""\
module m(input s0, input s1, input s2, input a, input b, input c, input d, output y);
  assign y = s0 ? a : (s1 ? b : (s2 ? c : d));
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "mux-cascade"
    assert d.pattern == "mux-heavy-selection"


def test_diagnose_high_fanout(bcfg):
    sinks = "\n".join(f"  assign y{i} = t ^ x{i};" for i in range(8))
    ports = ", ".join(f"input x{i}" for i in range(8))
    outs = ", ".join(f"output y{i}" for i in range(8))
    design, report = _report_of(f"""\
module f(input a, input b, {ports}, {outs});
  wire t;
  assign t = a & b;
{sinks}
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "high-fanout"
    assert "t" in d.evidence


def test_diagnose_control_data_coupling(bcfg):
    design, report = _report_of("""\
module g(input s, input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = s ? a : b;
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "control-data-coupling"


def test_diagnose_reconvergent(bcfg):
    design, report = _report_of("""\
module r(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = (a & b) | (a ^ b);
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "reconvergent"
    assert "a" in d.evidence


def _xor_ladder(levels):
    lines = ["module ladder(input [3:0] x, output [3:0] y);"]
    lines += [f"  wire [3:0] w{i};" for i in range(levels - 1)]
    prev = "x"
    for i in range(levels):
        target = f"w{i}" if i < levels - 1 else "y"
        lines.append(f"  assign {target} = {prev} ^ ({prev} >> 1);")
        prev = target
    return "\n".join(lines + ["endmodule", ""])


def test_diagnose_reconvergent_ladder_is_linear(bcfg):
    # Each level reads the previous wire twice, so the cone holds 2**24
    # references to x; counting each wire's cone once keeps this fast.
    design, report = _report_of(_xor_ladder(24), bcfg)
    path = select_critical_paths(report, 1)[0]
    start = time.perf_counter()
    d = diagnose(path, design)
    assert time.perf_counter() - start < 1.0
    assert d.root_cause == "reconvergent"
    assert d.evidence == "x reconverges in the cone of y"


def test_diagnose_depth_fallback(bcfg):
    design, report = _report_of("""\
module d(input a, input b, input c, input e, input f, input g, input h, output y);
  assign y = ~(~(~(~(~(~(a))))));
endmodule
""", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "excessive-depth"
    assert "low severity" not in d.evidence


def test_diagnose_low_severity_fallback(bcfg):
    design, report = _report_of(
        "module t(input a, input b, output y); assign y = a ^ b; endmodule", bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert d.root_cause == "excessive-depth"
    assert "low severity" in d.evidence


def test_report_roundtrip(bcfg):
    _, report = _report_of(CHAIN_ADDER_8, bcfg)
    again = TimingReport.from_dict(report.to_dict())
    assert again.to_dict() == report.to_dict()


def test_diagnosis_roundtrip(bcfg):
    design, report = _report_of(CHAIN_ADDER_8, bcfg)
    d = diagnose(select_critical_paths(report, 1)[0], design)
    assert type(d).from_dict(d.to_dict()).to_dict() == d.to_dict()
