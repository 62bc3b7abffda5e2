"""Builtin STA oracle: delay/area table, report shape, invariances."""

import itertools

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.backend import (
    BackendConfig,
    node_area,
    node_delay_ns,
    synthesize,
)
from rtlopt.dsl import parse


REBALANCED_8 = """\
module chain(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);
  assign y = (a + b) + (c + d);
endmodule
"""


def test_delay_table():
    assert node_delay_ns("not", 8) == pytest.approx(0.05)
    assert node_delay_ns("slice", 8) == pytest.approx(0.05)
    assert node_delay_ns("shl", 8) == pytest.approx(0.05)
    assert node_delay_ns("and", 8) == pytest.approx(0.10)
    assert node_delay_ns("mux", 8) == pytest.approx(0.15)
    assert node_delay_ns("eq", 8) == pytest.approx(0.05 + 0.02 * 3)
    assert node_delay_ns("lt", 8) == pytest.approx(0.05 + 0.02 * 8)
    assert node_delay_ns("add", 8) == pytest.approx(0.05 + 0.02 * 8)
    assert node_delay_ns("sub", 4) == pytest.approx(0.05 + 0.02 * 4)


def test_area_table():
    assert node_area("not", 8) == 1
    assert node_area("and", 8) == 16
    assert node_area("mux", 8) == 24
    assert node_area("eq", 8) == 16
    assert node_area("add", 8) == 32


def test_chained_adder_baseline(bcfg):
    metrics, report = synthesize(parse(CHAIN_ADDER_8), bcfg)
    # three 8-bit adds in series: 0.05 + 3*0.21 + 0.05 = 0.73, clock 0.5
    assert metrics.wns == pytest.approx(-0.23)
    assert metrics.tns == pytest.approx(-0.23)
    assert metrics.area == pytest.approx(3 * 32)
    assert report.endpoints[0].slack_ns == pytest.approx(-0.23)


def test_rebalanced_adder(bcfg):
    metrics, _ = synthesize(parse(REBALANCED_8), bcfg)
    # two add levels: 0.05 + 2*0.21 + 0.05 = 0.52
    assert metrics.wns == pytest.approx(-0.02)
    assert metrics.area == pytest.approx(3 * 32)  # same gate count


def test_register_endpoint_clk_to_q_and_setup(bcfg):
    d = parse("""\
module r(input [7:0] a, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always_ff begin
    q <= q + a;
  end
endmodule
""")
    metrics, report = synthesize(d, bcfg)
    slacks = {p.endpoint: p.slack_ns for p in report.endpoints}
    # register endpoint q: 0.05 + 0.21 + 0.05 = 0.31 -> slack 0.19
    assert slacks["q"] == pytest.approx(0.19)
    # output y reads q directly: 0.05 + 0.05 = 0.10 -> slack 0.40
    assert slacks["y"] == pytest.approx(0.40)
    assert metrics.wns == pytest.approx(0.19)
    assert metrics.tns == 0.0
    assert metrics.area == pytest.approx(32 + 6 * 8)


def test_tns_sums_only_negative_slacks(bcfg):
    d = parse("""\
module two(input [7:0] a, input [7:0] b, output [7:0] slow, output [7:0] fast);
  assign slow = ((a + b) + a) + b;
  assign fast = a & b;
endmodule
""")
    metrics, _ = synthesize(d, bcfg)
    assert metrics.wns == pytest.approx(-0.23)
    assert metrics.tns == pytest.approx(-0.23)  # fast endpoint is positive


def test_wns_monotone_under_extra_stage(bcfg):
    base, _ = synthesize(parse(CHAIN_ADDER_8), bcfg)
    longer = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d",
                                         "~(((a + b) + c) + d)"))
    worse, _ = synthesize(longer, bcfg)
    assert worse.wns < base.wns
    assert worse.wns == pytest.approx(base.wns - 0.05)


def test_statement_order_irrelevant(bcfg):
    body = ["  assign t = a + b;",
            "  assign u = t ^ c;",
            "  assign y = u - a;",
            "  assign z = t & c;"]
    reports = []
    for perm in itertools.permutations(body):
        src = ("module p(input [3:0] a, input [3:0] b, input [3:0] c, "
               "output [3:0] y, output [3:0] z);\n"
               "  wire [3:0] t;\n  wire [3:0] u;\n"
               + "\n".join(perm) + "\nendmodule\n")
        metrics, report = synthesize(parse(src), bcfg)
        shape = [(p.endpoint, p.startpoint, p.slack_ns,
                  [(s.op, s.delay_ns) for s in p.stages])
                 for p in report.endpoints]
        reports.append((metrics, shape))
    first_metrics, first_shape = reports[0]
    for metrics, shape in reports[1:]:
        assert metrics == first_metrics
        assert shape == first_shape


def test_stage_list_reconstructs_arrival(bcfg):
    _, report = synthesize(parse(CHAIN_ADDER_8), bcfg)
    path = report.endpoints[0]
    arrival = 0.05 + sum(s.delay_ns for s in path.stages) + 0.05
    assert bcfg.clock_period - arrival == pytest.approx(path.slack_ns)


def test_custom_clock_shifts_slack_only():
    tight, _ = synthesize(parse(CHAIN_ADDER_8), BackendConfig(clock_period=0.6))
    assert tight.wns == pytest.approx(-0.13)


SHARED_SUM = """\
module shared(input [7:0] a, input [7:0] b, input [7:0] c, output [7:0] y, output [7:0] z);
  assign y = (a + b) ^ c;
  assign z = c & (a + b);
endmodule
"""


def test_shared_subexpression_stages_name_their_own_occurrence(bcfg):
    """`(a + b)` is one node in both statements and in a second design with
    the same statements two lines lower; each occurrence's stage still
    carries its own line and column."""
    design = parse(SHARED_SUM)
    lower = parse(SHARED_SUM.replace("  assign y", "\n\n  assign y"))
    assert design.assigns[0].expr.args[0] is lower.assigns[1].expr.args[1]
    for shift, d in ((2, lower), (0, design)):
        _, report = synthesize(d, bcfg)
        stages = {p.endpoint: [(s.node, s.line, s.col) for s in p.stages]
                  for p in report.endpoints}
        y, z = 2 + shift, 3 + shift
        assert stages == {"y": [(f"add_{y}_17", y, 17), (f"xor_{y}_22", y, 22)],
                          "z": [(f"add_{z}_21", z, 21), (f"and_{z}_16", z, 16)]}
