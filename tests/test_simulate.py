"""Interpreter semantics, batch-engine agreement, and trace properties."""

import random
import warnings

import numpy as np
import pytest

from rtlopt.dsl import CompiledDesign, RtlError, parse, simulate, uint_dtype


ALU = parse("""\
module alu(input [3:0] a, input [3:0] b, input s, output [3:0] y, output f);
  wire [3:0] sum;
  wire [3:0] diff;
  assign sum = a + b;
  assign diff = a - b;
  assign y = s ? sum : diff;
  assign f = (a == b) | (a < b);
endmodule
""")

COUNTER = parse("""\
module counter(input en, output [2:0] y);
  reg [2:0] q;
  assign y = q;
  always_ff begin
    q <= en ? (q + 3'd1) : q;
  end
endmodule
""")


def test_combinational_semantics():
    out = simulate(ALU, [{"a": 9, "b": 8, "s": 1}], 1)
    assert out[0] == {"y": (9 + 8) & 0xF, "f": 0}
    out = simulate(ALU, [{"a": 3, "b": 5, "s": 0}], 1)
    assert out[0] == {"y": (3 - 5) & 0xF, "f": 1}


def test_registers_reset_to_zero_and_update():
    trace = [{"en": 1}, {"en": 1}, {"en": 0}, {"en": 1}]
    out = simulate(COUNTER, trace, 4)
    assert [o["y"] for o in out] == [0, 1, 2, 2]


def test_wraparound_and_shift_slice():
    d = parse("""\
module w(input [2:0] a, output [2:0] y, output z);
  assign y = (a << 1) + 3'd7;
  assign z = a[2:2];
endmodule
""")
    out = simulate(d, [{"a": 5}], 1)
    assert out[0]["y"] == (((5 << 1) & 7) + 7) & 7
    assert out[0]["z"] == 1


def test_input_validation():
    with pytest.raises(RtlError):
        simulate(ALU, [{"a": 1, "b": 2}], 1)          # missing input
    with pytest.raises(RtlError):
        simulate(ALU, [{"a": 16, "b": 0, "s": 0}], 1)  # out of range
    with pytest.raises(RtlError):
        simulate(ALU, [{"a": 1, "b": 2, "s": 0}], 2)   # trace/frames mismatch


def test_deterministic():
    trace = [{"a": 7, "b": 12, "s": 1}, {"a": 0, "b": 15, "s": 0}]
    assert simulate(ALU, trace, 2) == simulate(ALU, trace, 2)


def test_combinational_frame_locality():
    """Outputs of a pure combinational design depend only on that frame."""
    rng = random.Random(7)
    base = [{"a": rng.randrange(16), "b": rng.randrange(16),
             "s": rng.randrange(2)} for _ in range(6)]
    ref = simulate(ALU, base, 6)
    for frame in range(6):
        perturbed = [dict(v) for v in base]
        for other in range(6):
            if other != frame:
                perturbed[other] = {"a": rng.randrange(16),
                                    "b": rng.randrange(16),
                                    "s": rng.randrange(2)}
        got = simulate(ALU, perturbed, 6)
        assert got[frame] == ref[frame]


@pytest.mark.parametrize("design", [ALU, COUNTER])
def test_batch_engine_matches_interpreter(design):
    rng = random.Random(11)
    frames, n = 4, 64
    traces = []
    for _ in range(n):
        traces.append([
            {p.name: rng.randrange(1 << p.width) for p in design.input_ports}
            for _ in range(frames)
        ])
    input_arrays = [
        {p.name: np.array([traces[i][f][p.name] for i in range(n)],
                          dtype=np.uint64)
         for p in design.input_ports}
        for f in range(frames)
    ]
    batch = CompiledDesign(design).run(input_arrays, frames)
    for i in range(n):
        scalar = simulate(design, traces[i], frames)
        for f in range(frames):
            for p in design.output_ports:
                assert int(batch[f][p.name][i]) == scalar[f][p.name]


def test_width_64_arithmetic():
    d = parse("""\
module big(input [63:0] a, output [63:0] y);
  assign y = a + 64'd1;
endmodule
""")
    out = simulate(d, [{"a": (1 << 64) - 1}], 1)
    assert out[0]["y"] == 0


# --- batch engine against the reference interpreter ------------------------

WIDTHS = (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)


def _corners(width):
    mask = (1 << width) - 1
    return sorted({0, 1, mask, mask - 1, 1 << (width - 1)})


def _traces(design, frames, rows, seed):
    """Every input at each of its corner values in turn, then random rows."""
    rng = random.Random(seed)
    inputs = design.input_ports
    traces = []
    for i in range(rows):
        def value(p, f):
            corners = _corners(p.width)
            if i < 4 * len(corners):
                return corners[(i + f + len(p.name)) % len(corners)]
            return rng.getrandbits(p.width)
        traces.append([{p.name: value(p, f) for p in inputs} for f in range(frames)])
    return traces


def _assert_batch_matches(design, traces):
    """CompiledDesign agrees with simulate on every row, frame and output,
    given uint64 inputs or inputs in each port's own dtype, and returns
    every output in its port's dtype."""
    frames = len(traces[0])
    want = [simulate(design, trace, frames) for trace in traces]
    for dtype_of in (lambda p: np.uint64, lambda p: uint_dtype(p.width)):
        input_arrays = [
            {p.name: np.array([t[f][p.name] for t in traces], dtype=dtype_of(p))
             for p in design.input_ports}
            for f in range(frames)
        ]
        batch = CompiledDesign(design).run(input_arrays, frames)
        rows = len(traces) if design.input_ports else 1
        for f in range(frames):
            for p in design.output_ports:
                vector = batch[f][p.name]
                assert vector.dtype == uint_dtype(p.width) and vector.shape == (rows,)
                for i in range(rows):
                    assert int(vector[i]) == want[i][f][p.name], (p.name, f, traces[i])


def _every_op(width):
    top, half = width - 1, width // 2
    vec = f"[{top}:0]"
    return parse(f"""\
module ops(input {vec} a, input {vec} b, input s,
  output {vec} y_and, output {vec} y_or, output {vec} y_xor, output {vec} y_add,
  output {vec} y_sub, output {vec} y_not, output y_eq, output y_lt,
  output {vec} y_shl, output {vec} y_shr, output {vec} y_shl1, output {vec} y_shr1,
  output [{top - half}:0] y_slice, output {vec} y_mux, output {vec} y_select);
  assign y_and = a & b;
  assign y_or = a | b;
  assign y_xor = a ^ b;
  assign y_add = a + b;
  assign y_sub = a - b;
  assign y_not = ~a;
  assign y_eq = a == b;
  assign y_lt = a < b;
  assign y_shl = a << {top};
  assign y_shr = a >> {top};
  assign y_shl1 = a << {min(1, top)};
  assign y_shr1 = b >> {min(1, top)};
  assign y_slice = a[{top}:{half}];
  assign y_mux = s ? a : b;
  assign y_select = (a < b) ? b - a : ((a == b) ? ~a : a - b);
endmodule
""")


@pytest.mark.parametrize("width", WIDTHS)
def test_batch_engine_every_op_at_width(width):
    """Wrap-around of add, sub and not, shifts by width-1 and a slice of
    the upper half, at widths on both sides of every dtype boundary."""
    design = _every_op(width)
    _assert_batch_matches(design, _traces(design, 1, 160, width))


SLICES = parse("""\
module slices(input [31:0] x, input [63:0] z,
  output [19:0] p, output [7:0] q, output r, output [31:0] u, output [61:0] v,
  output [15:0] t, output [32:0] m, output [8:0] k, output [31:0] i, output [6:0] h);
  assign p = x[23:4];
  assign q = x[15:8];
  assign r = x[8:8];
  assign u = z[63:32];
  assign v = z[62:1];
  assign t = z[35:20];
  assign m = z[32:0];
  assign k = x[23:4][12:4];
  assign i = x[31:0];
  assign h = (z + 64'd1)[63:57];
endmodule
""")


def test_batch_engine_slices_across_dtype_boundaries():
    _assert_batch_matches(SLICES, _traces(SLICES, 1, 160, 3))


MIXED_REGISTERS = parse("""\
module regs(input [63:0] a, input [16:0] b, input e,
  output y1, output [8:0] y9, output [16:0] y17, output [32:0] y33, output [63:0] y64);
  reg q1;
  reg [8:0] q9;
  reg [16:0] q17;
  reg [32:0] q33;
  reg [63:0] q64;
  assign y1 = q1 ^ (q9 < a[8:0]);
  assign y9 = q9;
  assign y17 = q17 >> 16;
  assign y33 = q33 - a[40:8];
  assign y64 = q64;
  always_ff begin
    q1 <= (q9 == a[8:0]) ? ~q1 : q1;
    q9 <= e ? q9 - a[20:12] : q9 + 9'd511;
    q17 <= (b < q17) ? q17 - b : (q17 + b) << 3;
    q33 <= q33[0:0] ? q33 + a[63:31] : ~q33;
    q64 <= (q64 << 1) ^ (e ? a : ~q64);
  end
endmodule
""")


def test_batch_engine_mixed_width_registers_over_frames():
    _assert_batch_matches(MIXED_REGISTERS, _traces(MIXED_REGISTERS, 6, 96, 5))


CONSTANT_SUBTREES = [
    "module c(input [63:0] a, output [63:0] y);\n"
    "  assign y = (64'hFFFFFFFFFFFFFFFF + 64'd2) ^ a;\nendmodule\n",
    "module c(input [7:0] a, output [7:0] y);\n"
    "  assign y = (8'd200 + 8'd100) ^ a;\nendmodule\n",
    # constant outputs and register next states, a folded mux select
    "module c(input [7:0] a, output [7:0] y, output [7:0] z, output [3:0] w);\n"
    "  reg [3:0] q;\n  assign y = (8'd1 < 8'd2) ? a : ~a;\n"
    "  assign z = 8'd3 - 8'd5;\n  assign w = q + 4'd15;\n"
    "  always_ff begin\n    q <= 4'd9;\n  end\nendmodule\n",
    # no inputs: one sequence
    "module c(output [7:0] y);\n  reg [7:0] q;\n  assign y = q;\n"
    "  always_ff begin\n    q <= q + (8'd250 + 8'd10);\n  end\nendmodule\n",
]


@pytest.mark.parametrize("source", CONSTANT_SUBTREES)
def test_constant_subtrees_fold_without_overflow_warnings(source):
    design = parse(source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_batch_matches(design, _traces(design, 3, 40, 1))
