"""SEC oracle: corpus classification, counterexample replay, properties."""

import itertools

import pytest

from corpus import CHAIN_ADDER_8, EQUIVALENT_PAIRS, NONEQUIVALENT_PAIRS
from rtlopt.backend import (
    PortInterfaceMismatch,
    SEC_BOUNDED,
    SEC_EXHAUSTIVE,
    SEC_SKIPPED_BASELINE,
    check_equivalence,
    evaluate,
)
from rtlopt.dsl import parse, simulate


@pytest.mark.parametrize("golden_src,candidate_src", EQUIVALENT_PAIRS)
def test_equivalent_pairs_pass(golden_src, candidate_src, bcfg):
    verdict = check_equivalence(parse(golden_src), parse(candidate_src), bcfg)
    assert verdict.mode == SEC_EXHAUSTIVE
    assert verdict.passed
    assert verdict.counterexample is None


@pytest.mark.parametrize("golden_src,candidate_src", NONEQUIVALENT_PAIRS)
def test_nonequivalent_pairs_fail_and_replay(golden_src, candidate_src, bcfg):
    golden = parse(golden_src)
    candidate = parse(candidate_src)
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict.mode == SEC_EXHAUSTIVE
    assert not verdict.passed
    cex = verdict.counterexample
    assert cex is not None
    trace = list(cex.input_trace)
    g = simulate(golden, trace, len(trace))
    c = simulate(candidate, trace, len(trace))
    assert g[cex.frame][cex.output] == cex.golden_value
    assert c[cex.frame][cex.output] == cex.candidate_value
    assert cex.golden_value != cex.candidate_value


@pytest.mark.parametrize("golden_src,candidate_src",
                         EQUIVALENT_PAIRS[:3] + NONEQUIVALENT_PAIRS[:3])
def test_verdict_symmetric(golden_src, candidate_src, bcfg):
    a, b = parse(golden_src), parse(candidate_src)
    assert (check_equivalence(a, b, bcfg).passed
            == check_equivalence(b, a, bcfg).passed)


def test_port_mismatch_distinct_from_failure(bcfg):
    a = parse("module m(input a, output y); assign y = a; endmodule")
    b = parse("module m(input a, output z); assign z = a; endmodule")
    c = parse("module m(input [1:0] a, output y); assign y = a[0:0]; endmodule")
    for other in (b, c):
        with pytest.raises(PortInterfaceMismatch):
            check_equivalence(a, other, bcfg)


def test_bounded_mode_engages_over_budget(bcfg):
    golden = parse(CHAIN_ADDER_8)                     # 32 input bits x 2 frames
    candidate = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d",
                                            "(a + b) + (c + d)"))
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict.mode == SEC_BOUNDED
    assert verdict.passed
    broken = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d",
                                         "((a + b) + c) - d"))
    verdict = check_equivalence(golden, broken, bcfg)
    assert verdict.mode == SEC_BOUNDED
    assert not verdict.passed


def test_exhaustive_agrees_with_bruteforce_simulate(bcfg):
    """Oracle-vs-oracle: vectorized SEC vs scalar full enumeration."""
    golden = parse("""\
module g(input [1:0] a, input b, output [1:0] y);
  reg [1:0] q;
  assign y = q ^ (b ? a : 2'd0);
  always_ff begin
    q <= q + a;
  end
endmodule
""")
    candidate = parse("""\
module g(input [1:0] a, input b, output [1:0] y);
  reg [1:0] q;
  assign y = (b ? a : 2'd0) ^ q;
  always_ff begin
    q <= a + q;
  end
endmodule
""")
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict.mode == SEC_EXHAUSTIVE and verdict.passed
    frames = 3  # one register + 2
    per_frame = [(a, b) for a in range(4) for b in range(2)]
    for combo in itertools.product(per_frame, repeat=frames):
        trace = [{"a": a, "b": b} for a, b in combo]
        assert simulate(golden, trace, frames) == simulate(candidate, trace, frames)


def test_frame_count_covers_register_depth(bcfg):
    """A divergence only reachable after two register hops is still found."""
    golden = parse("""\
module deep(input a, output y);
  reg q1;
  reg q2;
  assign y = q2;
  always_ff begin
    q1 <= a;
    q2 <= q1;
  end
endmodule
""")
    candidate = parse("""\
module deep(input a, output y);
  reg q1;
  reg q2;
  assign y = q2;
  always_ff begin
    q1 <= a;
    q2 <= q1 ^ (a & q1);
  end
endmodule
""")
    verdict = check_equivalence(golden, candidate, bcfg)
    assert not verdict.passed
    assert verdict.counterexample.frame >= 2


def test_evaluate_baseline_skips_sec(bcfg):
    result = evaluate(parse(CHAIN_ADDER_8), None, bcfg)
    assert result.sec_pass
    assert result.sec_mode == SEC_SKIPPED_BASELINE
