"""Shared design corpus: equivalence pairs and rewrite targets.

Widths in the equivalence and rewrite lists are kept small enough that
total input bits x frames stays inside the exhaustive-enumeration budget,
so every simulated verdict there is exact.
"""

CHAIN_ADDER_8 = """\
module chain(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);
  assign y = ((a + b) + c) + d;
endmodule
"""

CHAIN_ADDER_8_VARIANT = """\
module chainv(input [7:0] p, input [7:0] q, input [7:0] r, input [7:0] s, output [7:0] out);
  assign out = ((p + q) + r) + s;
endmodule
"""

# The chain feeding a register: 32 input bits x 3 frames is over the
# exhaustive budget, and a registered design is never proved by normal
# form, so every check of it simulates.
CHAIN_ADDER_8_REG = """\
module chainq(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always_ff begin
    q <= ((a + b) + c) + d;
  end
endmodule
"""

# --- equivalent pairs (exhaustive SEC must pass) ---------------------------

EQUIVALENT_PAIRS = [
    # commutativity
    ("module m(input a, input b, output y); assign y = a & b; endmodule",
     "module m(input a, input b, output y); assign y = b & a; endmodule"),
    ("module m(input a, input b, output y); assign y = a | b; endmodule",
     "module m(input a, input b, output y); assign y = b | a; endmodule"),
    ("module m(input a, input b, output y); assign y = a ^ b; endmodule",
     "module m(input a, input b, output y); assign y = b ^ a; endmodule"),
    # reassociation / rebalance
    ("""module m(input [1:0] a, input [1:0] b, input [1:0] c, input [1:0] d, output [1:0] y);
  assign y = ((a + b) + c) + d;
endmodule""",
     """module m(input [1:0] a, input [1:0] b, input [1:0] c, input [1:0] d, output [1:0] y);
  assign y = (a + b) + (c + d);
endmodule"""),
    ("module m(input a, input b, input c, output y); assign y = (a & b) & c; endmodule",
     "module m(input a, input b, input c, output y); assign y = a & (b & c); endmodule"),
    # common-subexpression extraction
    ("""module m(input [1:0] a, input [1:0] b, input [1:0] c, output [1:0] y);
  assign y = (a & b) | ((a & b) ^ c);
endmodule""",
     """module m(input [1:0] a, input [1:0] b, input [1:0] c, output [1:0] y);
  wire [1:0] t;
  assign t = a & b;
  assign y = t | (t ^ c);
endmodule"""),
    # mux chain -> balanced selection tree
    ("""module m(input [1:0] sel, input a, input b, input c, input d, output y);
  assign y = (sel == 2'd0) ? a : ((sel == 2'd1) ? b : ((sel == 2'd2) ? c : d));
endmodule""",
     """module m(input [1:0] sel, input a, input b, input c, input d, output y);
  wire lo;
  assign lo = (sel == 2'd0) | (sel == 2'd1);
  assign y = lo ? ((sel == 2'd0) ? a : b) : ((sel == 2'd2) ? c : d);
endmodule"""),
    # register duplication (latency preserved)
    ("""module m(input [1:0] a, input [1:0] b, output [1:0] y1, output [1:0] y2);
  reg [1:0] q;
  assign y1 = q ^ b;
  assign y2 = q & b;
  always_ff begin
    q <= a;
  end
endmodule""",
     """module m(input [1:0] a, input [1:0] b, output [1:0] y1, output [1:0] y2);
  reg [1:0] q;
  reg [1:0] qd;
  assign y1 = q ^ b;
  assign y2 = qd & b;
  always_ff begin
    q <= a;
    qd <= a;
  end
endmodule"""),
    # constant annihilator
    ("module m(input a, output y); assign y = a & 1'b0; endmodule",
     "module m(input a, output y); wire u; assign u = a; assign y = 1'b0; endmodule"),
    # condition precompute
    ("""module m(input [1:0] a, input [1:0] b, input c, input d, output y);
  assign y = (a == b) ? c : d;
endmodule""",
     """module m(input [1:0] a, input [1:0] b, input c, input d, output y);
  wire e;
  assign e = a == b;
  assign y = e ? c : d;
endmodule"""),
]

# --- non-equivalent pairs (exhaustive SEC must fail with counterexample) ---

NONEQUIVALENT_PAIRS = [
    # operator swaps
    ("module m(input a, input b, output y); assign y = a & b; endmodule",
     "module m(input a, input b, output y); assign y = a | b; endmodule"),
    ("module m(input a, input b, output y); assign y = a ^ b; endmodule",
     "module m(input a, input b, output y); assign y = a | b; endmodule"),
    ("""module m(input [1:0] a, input [1:0] b, output [1:0] y);
  assign y = a + b;
endmodule""",
     """module m(input [1:0] a, input [1:0] b, output [1:0] y);
  assign y = a - b;
endmodule"""),
    ("""module m(input [1:0] a, input [1:0] b, output y);
  assign y = a == b;
endmodule""",
     """module m(input [1:0] a, input [1:0] b, output y);
  assign y = a < b;
endmodule"""),
    # operand width truncation
    ("""module m(input [1:0] a, input [1:0] b, output [1:0] y);
  assign y = a + b;
endmodule""",
     """module m(input [1:0] a, input [1:0] b, output [1:0] y);
  assign y = (a & 2'd1) + b;
endmodule"""),
    # latency change: combinational bypass of a register
    ("""module m(input a, output y);
  reg q;
  assign y = q;
  always_ff begin
    q <= a;
  end
endmodule""",
     "module m(input a, output y); assign y = a; endmodule"),
    # initial-state polarity flip (visible at frame 0 only)
    ("""module m(input a, output y);
  reg q;
  assign y = q;
  always_ff begin
    q <= a;
  end
endmodule""",
     """module m(input a, output y);
  reg qn;
  assign y = ~qn;
  always_ff begin
    qn <= ~a;
  end
endmodule"""),
    # mux arms swapped
    ("module m(input s, input a, input b, output y); assign y = s ? a : b; endmodule",
     "module m(input s, input a, input b, output y); assign y = s ? b : a; endmodule"),
    # wrong shift amount
    ("""module m(input [1:0] a, output [1:0] y);
  assign y = a << 1;
endmodule""",
     """module m(input [1:0] a, output [1:0] y);
  assign y = a << 0;
endmodule"""),
    # dropped term
    ("module m(input a, input b, input c, output y); assign y = (a & b) & c; endmodule",
     "module m(input a, input b, input c, output y); assign y = a & b; endmodule"),
]

# --- rewrite-catalog corpus ------------------------------------------------

REWRITE_CORPUS = [
    """module chain2(input [1:0] a, input [1:0] b, input [1:0] c, input [1:0] d, output [1:0] y);
  assign y = ((a + b) + c) + d;
endmodule""",
    """module cse2(input [1:0] a, input [1:0] b, input [1:0] c, output [1:0] y1, output [1:0] y2);
  assign y1 = (a & b) | c;
  assign y2 = (a & b) ^ c;
endmodule""",
    """module muxchain(input [1:0] sel, input a, input b, input c, input d, output y);
  assign y = (sel == 2'd0) ? a : ((sel == 2'd1) ? b : ((sel == 2'd2) ? c : d));
endmodule""",
    """module fanout(input a, input b, input c, output y1, output y2, output y3);
  wire t;
  assign t = a ^ b;
  assign y1 = t & c;
  assign y2 = t | c;
  assign y3 = ~t;
endmodule""",
    """module regdup(input a, input b, input m, output y1, output y2);
  reg q;
  assign y1 = q & m;
  assign y2 = q | m;
  always_ff begin
    q <= a ^ b;
  end
endmodule""",
    """module constfold(input [1:0] a, input [1:0] b, output [1:0] y);
  assign y = (a & 2'd0) | (b + 2'd0);
endmodule""",
    """module widesel(input s, input [2:0] a, input [2:0] b, output [2:0] y);
  assign y = s ? (a + b) : (a - b);
endmodule""",
]

# --- bounded non-equivalent pairs (over the exhaustive budget) --------------
# 32 input bits x 2 frames, so SEC samples; each pair differs on one input
# value only, and the sampled check must still find it.

BOUNDED_NONEQUIVALENT_PAIRS = [
    # differs at all-ones only: no random sample reaches it, a directed row does
    ("module m(input [31:0] x, output [31:0] y); assign y = x; endmodule",
     """module m(input [31:0] x, output [31:0] y);
  assign y = (x == 32'hFFFFFFFF) ? 32'd0 : x;
endmodule"""),
    # differs when the upper half is a candidate-only constant: no directed
    # row reaches it, and the first random sample that does lies past the
    # first SEC chunk
    ("module m(input [31:0] x, output [31:0] y); assign y = x; endmodule",
     """module m(input [31:0] x, output [31:0] y);
  assign y = (x[31:16] == 16'hB0BF) ? 32'd0 : x;
endmodule"""),
]

# --- normal-form near misses ------------------------------------------------
# Non-equivalent pairs that a careless normal form would merge: operand
# order of non-commutative operators, xor and add duplicates, slice and shift
# parameters, and constants folded without reduction modulo 2**width. No
# check may prove any of them; simulation must refute each.

_NEAR_MISS_PORTS = "input [7:0] a, input [7:0] b"


def _near_miss(width, golden_expr, candidate_expr):
    out = f"output [{width - 1}:0] y" if width > 1 else "output y"
    return tuple(f"module m({_NEAR_MISS_PORTS}, {out}); assign y = {e}; endmodule"
                 for e in (golden_expr, candidate_expr))


SYMBOLIC_NEAR_MISS_PAIRS = [
    _near_miss(8, "a - b", "b - a"),
    _near_miss(1, "a < b", "b < a"),
    _near_miss(8, "(a ^ a) ^ b", "a ^ b"),
    _near_miss(8, "(a + a) + b", "a + b"),
    _near_miss(4, "a[4:1]", "a[3:0]"),
    _near_miss(8, "a << 1", "a << 2"),
    # 200 + 100 is 44 in 8 bits, so the select is 1 and y is a
    _near_miss(8, "((8'd200 + 8'd100) < 8'd50) ? a : b", "b"),
    # 200 + 100 is 44 in 8 bits, not 45
    _near_miss(8, "(a + 8'd200) + 8'd100", "a + 8'd45"),
]
