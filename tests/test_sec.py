"""SEC oracle: corpus classification, counterexample replay, properties."""

import itertools
import json
import os

import numpy as np
import pytest

from corpus import (
    BOUNDED_NONEQUIVALENT_PAIRS,
    CHAIN_ADDER_8,
    EQUIVALENT_PAIRS,
    NONEQUIVALENT_PAIRS,
    SYMBOLIC_NEAR_MISS_PAIRS,
)
from rtlopt.backend import (
    SEC_BOUNDED,
    SEC_CHUNK,
    SEC_EXHAUSTIVE,
    SEC_SAMPLE_COUNT,
    SEC_SAMPLE_SEED,
    SEC_SYMBOLIC,
    GoldenSec,
    PortInterfaceMismatch,
    SecVerdict,
    check_equivalence,
    simulate_equivalence,
)
from rtlopt.dsl import CompiledDesign, Expr, normal, output_forms, parse, simulate, uint_dtype
from rtlopt.orchestrator import RunConfig, run
from rtlopt.trajectory import RunState


def _assert_replays(golden, candidate, cex):
    trace = list(cex.input_trace)
    g = simulate(golden, trace, len(trace))
    c = simulate(candidate, trace, len(trace))
    assert g[cex.frame][cex.output] == cex.golden_value
    assert c[cex.frame][cex.output] == cex.candidate_value
    assert cex.golden_value != cex.candidate_value


@pytest.mark.parametrize("golden_src,candidate_src", EQUIVALENT_PAIRS)
def test_equivalent_pairs_pass(golden_src, candidate_src, bcfg):
    golden, candidate = parse(golden_src), parse(candidate_src)
    verdict = simulate_equivalence(golden, candidate)
    assert verdict.mode == SEC_EXHAUSTIVE
    assert verdict.passed
    assert verdict.counterexample is None
    # check_equivalence passes too: by proof only where both are register-free
    checked = check_equivalence(golden, candidate, bcfg)
    if checked.mode == SEC_SYMBOLIC:
        assert not golden.registers and not candidate.registers
        assert checked == SecVerdict(True, SEC_SYMBOLIC)
    else:
        assert checked == verdict


def test_normal_form_proves_register_free_equivalent_pairs(bcfg):
    """Every register-free pair but the mux chain (whose two sides select
    through different compares) has equal normal forms."""
    modes = [check_equivalence(parse(g), parse(c), bcfg).mode for g, c in EQUIVALENT_PAIRS]
    assert modes == [SEC_SYMBOLIC] * 6 + [SEC_EXHAUSTIVE] * 2 + [SEC_SYMBOLIC] * 2


def test_normal_form_drops_subtracted_zero(bcfg):
    """``x - 0`` has ``x``'s form, so the pair is proved; ``0 - x`` is not."""
    ports = "module m(input [3:0] a, output [3:0] y);"
    plain = parse(f"{ports} assign y = a; endmodule")
    assert output_forms(parse(f"{ports} assign y = a - 4'd0; endmodule")) == output_forms(plain)
    assert check_equivalence(
        plain, parse(f"{ports} assign y = a - 4'd0; endmodule"), bcfg).mode == SEC_SYMBOLIC
    assert not GoldenSec(plain).proves(parse(f"{ports} assign y = 4'd0 - a; endmodule"))


@pytest.mark.parametrize("n", [750, 3000])
def test_flat_chain_form_is_built_once_per_chain(monkeypatch, n):
    """A flat n-term chain's form is built where the chain ends, not at every
    level: the nodes built hold about n operands in all, where one form per
    level would hold about n**2/3."""
    built = []

    def counted(*args, **kwargs):
        node = Expr(*args, **kwargs)
        built.append(len(node.args))
        return node

    monkeypatch.setattr(normal, "Expr", counted)
    terms = " + ".join(["a", "b", "8'd1"] * (n // 3))
    (form,) = output_forms(parse("module flat(input [7:0] a, input [7:0] b, output [7:0] y);\n"
                                 f"  assign y = {terms};\nendmodule\n"))
    assert form.kind == "add" and len(form.args) == 2 * n // 3 + 1
    assert [f.value for f in form.args if f.kind == "const"] == [n // 3 % 256]
    assert sum(built) <= n


@pytest.mark.parametrize("golden_src,candidate_src", SYMBOLIC_NEAR_MISS_PAIRS)
def test_near_misses_are_not_proved_and_replay(golden_src, candidate_src, bcfg):
    golden, candidate = parse(golden_src), parse(candidate_src)
    assert not GoldenSec(golden).proves(candidate)
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict == simulate_equivalence(golden, candidate)
    assert verdict.mode != SEC_SYMBOLIC
    assert not verdict.passed
    _assert_replays(golden, candidate, verdict.counterexample)


def test_register_free_run_proves_every_candidate(tmp_path, monkeypatch):
    """On the combinational chain every evaluated candidate is proved, so
    the run builds no stimulus and simulates nothing."""
    def no_simulation(self, input_arrays, frames):
        raise AssertionError("a proved run simulated")

    monkeypatch.setattr(CompiledDesign, "run", no_simulation)
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=3),
                 str(tmp_path))
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = RunState.from_dict(json.load(fh))
    evals = [c.eval for it in state.iterations for c in it.candidates
             if c.status != "skipped"]
    assert evals and all(e.sec_pass and e.sec_mode == SEC_SYMBOLIC for e in evals)


@pytest.mark.parametrize("golden_src,candidate_src", NONEQUIVALENT_PAIRS)
def test_nonequivalent_pairs_fail_and_replay(golden_src, candidate_src, bcfg):
    golden = parse(golden_src)
    candidate = parse(candidate_src)
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict.mode == SEC_EXHAUSTIVE
    assert not verdict.passed
    assert verdict.counterexample is not None
    _assert_replays(golden, candidate, verdict.counterexample)


@pytest.mark.parametrize("golden_src,candidate_src", BOUNDED_NONEQUIVALENT_PAIRS)
def test_bounded_nonequivalent_pairs_fail_and_replay(golden_src, candidate_src, bcfg):
    golden = parse(golden_src)
    candidate = parse(candidate_src)
    verdict = check_equivalence(golden, candidate, bcfg)
    assert verdict.mode == SEC_BOUNDED
    assert not verdict.passed
    assert verdict.counterexample is not None
    _assert_replays(golden, candidate, verdict.counterexample)


def test_directed_rows_precede_the_random_sample():
    """Chunk 0 is the directed rows alone."""
    golden = parse(BOUNDED_NONEQUIVALENT_PAIRS[0][0])
    ref = GoldenSec(golden).reference(2)
    directed = ref.rows - SEC_SAMPLE_COUNT
    assert directed > 0
    inputs, _ = ref.chunk(0)
    assert all(len(vec["x"]) == directed for vec in inputs)
    head = {int(v) for vec in inputs for v in vec["x"]}
    assert {0, 1, 0xFFFFFFFF, 0x80000000} <= head


LAYOUT = """\
module lay(input [31:0] a, input [31:0] b, input s, input [8:0] n, input [63:0] z,
           output [31:0] y, output f, output [8:0] m, output [63:0] w);
  assign y = s ? a + b : a - b;
  assign f = a < b;
  assign m = n ^ a[8:0];
  assign w = z + 64'd1;
endmodule
"""


@pytest.mark.parametrize("source,mode", [
    (LAYOUT, SEC_BOUNDED),
    ("module m(input a, input [3:0] b, output [3:0] y); assign y = a ? b : ~b; endmodule",
     SEC_EXHAUSTIVE),
])
def test_reference_holds_each_port_in_its_narrowest_dtype(source, mode, bcfg):
    golden = parse(source)
    ref = GoldenSec(golden).reference(2)
    assert ref.mode == mode
    chunks = [ref.chunk(k) for k in range(len(ref.edges) - 1)]
    for inputs, outputs in chunks:
        for frame in range(2):
            for p in golden.input_ports:
                assert inputs[frame][p.name].dtype == uint_dtype(p.width), p.name
            for p in golden.output_ports:
                assert outputs[frame][p.name].dtype == uint_dtype(p.width), p.name
    if mode == SEC_BOUNDED:
        # Chunk 0 is the directed rows; the sample follows in chunks of
        # SEC_CHUNK rows, drawn as uint64 chunk by chunk, frame by frame,
        # port by port.
        sizes = [len(inputs[0]["a"]) for inputs, _ in chunks]
        assert sizes == ([ref.rows - SEC_SAMPLE_COUNT]
                         + [SEC_CHUNK] * (SEC_SAMPLE_COUNT // SEC_CHUNK)
                         + [SEC_SAMPLE_COUNT % SEC_CHUNK])
        rng = np.random.default_rng(SEC_SAMPLE_SEED)
        for inputs, _ in chunks[1:]:
            for frame in range(2):
                for p in golden.input_ports:
                    drawn = rng.integers(0, 1 << p.width, size=len(inputs[frame][p.name]),
                                         dtype=np.uint64)
                    assert np.array_equal(inputs[frame][p.name], drawn)
    else:
        # One chunk decodes every sequence number, frame-major, port by port.
        ((inputs, _),) = chunks
        seq = np.arange(ref.rows)
        assert np.array_equal(inputs[0]["a"], seq & 1)
        assert np.array_equal(inputs[0]["b"], seq >> 1 & 15)
        assert np.array_equal(inputs[1]["a"], seq >> 5 & 1)
        assert np.array_equal(inputs[1]["b"], seq >> 6 & 15)
    broken = parse(source.replace("~b", "b").replace("a < b", "b < a"))
    cex = check_equivalence(golden, broken, bcfg).counterexample
    values = [cex.golden_value, cex.candidate_value,
              *(v for frame in cex.input_trace for v in frame.values())]
    assert all(type(v) is int for v in values)
    _assert_replays(golden, broken, cex)


def _is_fresh(rng):
    return rng.bit_generator.state == np.random.default_rng(SEC_SAMPLE_SEED).bit_generator.state


def test_refuted_on_directed_rows_builds_one_chunk(bcfg):
    """A candidate that the directed rows refute leaves chunk 0 alone built
    and the sample generator undrawn."""
    golden, candidate = map(parse, BOUNDED_NONEQUIVALENT_PAIRS[0])
    sec = GoldenSec(golden)
    verdict = check_equivalence(golden, candidate, bcfg, sec)
    assert verdict.mode == SEC_BOUNDED and not verdict.passed
    _assert_replays(golden, candidate, verdict.counterexample)
    ref = sec.reference(2)
    assert len(ref.chunks) == 1
    assert _is_fresh(ref.rng)


def test_counterexample_past_the_first_chunk_replays(bcfg):
    """The pair's only mismatching rows lie past the first SEC_CHUNK sampled
    rows: the check builds exactly the chunks up to the one that refutes
    it, and its counterexample, indexed within that chunk, replays."""
    golden_src, candidate_src = BOUNDED_NONEQUIVALENT_PAIRS[1]
    golden, candidate = parse(golden_src), parse(candidate_src)
    upper = 0xB0BF  # the candidate's constant
    sec = GoldenSec(golden)
    verdict = check_equivalence(golden, candidate, bcfg, sec)
    assert verdict.mode == SEC_BOUNDED and not verdict.passed
    _assert_replays(golden, candidate, verdict.counterexample)
    assert any(vec["x"] >> 16 == upper for vec in verdict.counterexample.input_trace)
    ref = sec.reference(2)
    hits = [bool(np.logical_or.reduce([vec["x"] >> np.uint64(16) == upper
                                       for vec in inputs]).any())
            for inputs, _ in ref.chunks]
    assert len(ref.chunks) > 2 and hits[-1] and not any(hits[:-1])
    assert len(ref.chunks) < len(ref.edges) - 1
    assert not _is_fresh(ref.rng)


def test_chunks_do_not_depend_on_the_check_that_built_them():
    """Chunk k holds the same stimulus and golden traces whether a passing
    check built every chunk or a failing one stopped at k."""
    golden_src, candidate_src = BOUNDED_NONEQUIVALENT_PAIRS[1]
    golden = parse(golden_src)
    passing, stopped = GoldenSec(golden), GoldenSec(golden)
    assert simulate_equivalence(golden, parse(golden_src), passing).passed
    assert not simulate_equivalence(golden, parse(candidate_src), stopped).passed
    built = passing.reference(2).chunks
    assert len(built) == len(passing.reference(2).edges) - 1
    assert 1 < len(stopped.reference(2).chunks) < len(built)
    for (inputs, outputs), (same_inputs, same_outputs) in zip(
            built, stopped.reference(2).chunks):
        for vectors, same in ((inputs, same_inputs), (outputs, same_outputs)):
            for vec, other in zip(vectors, same, strict=True):
                assert vec.keys() == other.keys()
                for name in vec:
                    assert vec[name].dtype == other[name].dtype
                    assert np.array_equal(vec[name], other[name])


CONSTANT_GOLDEN = "module m(input [31:0] a, input [31:0] b, output [31:0] y); " \
                  "assign y = a + b; endmodule"


def test_candidate_only_constants_get_directed_rows(bcfg):
    """A candidate that differs only where an input equals a constant the
    golden lacks is refuted by the check's own constant chunk, which is not
    kept: the reference holds chunk 0 alone and the generator is undrawn."""
    golden = parse(CONSTANT_GOLDEN)
    candidate = parse(CONSTANT_GOLDEN.replace(
        "a + b", "(a == 32'd3735928559) ? (a - b) : (a + b)"))
    sec = GoldenSec(golden)
    verdict = check_equivalence(golden, candidate, bcfg, sec)
    assert verdict.mode == SEC_BOUNDED and not verdict.passed
    _assert_replays(golden, candidate, verdict.counterexample)
    assert 3735928559 in {v["a"] for v in verdict.counterexample.input_trace}
    ref = sec.reference(2)
    assert len(ref.chunks) == 1 and _is_fresh(ref.rng)
    # An equivalent candidate with its own constants still passes, and the
    # constant chunk leaves every later chunk as an unchecked one builds it.
    same = parse(CONSTANT_GOLDEN.replace("a + b", "(a + 32'd7) + (b - 32'd7)"))
    assert simulate_equivalence(golden, same, sec) == SecVerdict(True, SEC_BOUNDED)
    fresh = GoldenSec(golden).reference(2)
    for k, (inputs, _) in enumerate(ref.chunks):
        assert all(np.array_equal(vec[n], fresh.chunk(k)[0][f][n])
                   for f, vec in enumerate(inputs) for n in vec)


def test_context_reuses_stimulus_and_golden_traces(bcfg):
    golden = parse(CHAIN_ADDER_8)
    sec = GoldenSec(golden)
    same = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d", "(a + b) + (c + d)"))
    broken = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d", "((a + b) + c) - d"))
    for candidate, passed in ((same, True), (broken, False), (same, True)):
        with_sec = check_equivalence(golden, candidate, bcfg, sec)
        assert with_sec == check_equivalence(golden, candidate, bcfg)
        assert with_sec.passed is passed
        simulated = simulate_equivalence(golden, candidate, sec)
        assert simulated == simulate_equivalence(golden, candidate)
        assert simulated.passed is passed
    assert sec.reference(2) is sec.reference(2)


def test_context_builds_each_reference_once_per_frame_count(monkeypatch):
    """Later requests for a frame count get the same reference object, and
    each of its chunks' golden traces is simulated once, when the chunk is
    first asked for; asking for chunk k builds the chunks before it."""
    golden = parse(CHAIN_ADDER_8)
    sec = GoldenSec(golden)
    real_run = CompiledDesign.run
    sims = []

    def counting_run(self, input_arrays, frames):
        sims.append((frames, input_arrays))
        return real_run(self, input_arrays, frames)

    monkeypatch.setattr(CompiledDesign, "run", counting_run)
    refs = [sec.reference(frames) for frames in [2, 2, 2, 2, 3]]
    assert sims == []
    assert all(ref is refs[0] for ref in refs[:4])
    assert refs[4] is not refs[0]
    for ref in refs:
        ref.chunk(1)
    assert [frames for frames, _ in sims] == [2, 2, 3, 3]
    for ref in refs:
        for k in range(len(ref.edges) - 1):
            ref.chunk(k)
    for ref in (refs[0], refs[4]):
        golden_inputs = [inputs for frames, inputs in sims if frames == ref.frames]
        assert len(golden_inputs) == len(ref.edges) - 1 == len(ref.chunks)
        assert all(a is b for a, (b, _) in zip(golden_inputs, ref.chunks, strict=True))


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
    verdict = simulate_equivalence(golden, candidate)
    assert verdict.mode == SEC_BOUNDED
    assert verdict.passed
    assert check_equivalence(golden, candidate, bcfg) == SecVerdict(True, SEC_SYMBOLIC)
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

