"""Parser, elaboration, and printer round-trip tests."""

import pytest

from rtlopt.dsl import (
    RtlSemanticError,
    RtlSyntaxError,
    parse,
    print_design,
    print_expr,
    topo_order,
)


def test_basic_module_shape():
    d = parse("""\
module top(input [3:0] a, input b, output [3:0] y);
  wire [3:0] t;
  assign t = a + 4'd1;
  assign y = b ? t : a;
endmodule
""", "top.rtl")
    assert d.name == "top"
    assert [p.name for p in d.input_ports] == ["a", "b"]
    assert [p.width for p in d.input_ports] == [4, 1]
    assert [p.name for p in d.output_ports] == ["y"]
    assert d.width_of("t") == 4
    assert d.port_signature() == (("a", "input", 4), ("b", "input", 1),
                                  ("y", "output", 4))


def test_registers_and_always_ff():
    d = parse("""\
module seq(input [7:0] a, output [7:0] y);
  reg [7:0] q;
  assign y = q;
  always_ff begin
    q <= a + 8'd1;
  end
endmodule
""")
    assert [r.name for r in d.registers] == ["q"]
    assert d.registers[0].next.kind == "add"


def test_sized_constants():
    d = parse("""\
module c(output [7:0] y1, output [7:0] y2, output [7:0] y3);
  assign y1 = 8'd255;
  assign y2 = 8'b1010;
  assign y3 = 8'hFe;
endmodule
""")
    values = {a.target: a.expr.value for a in d.assigns}
    assert values == {"y1": 255, "y2": 0b1010, "y3": 0xFE}


def test_precedence():
    d = parse("""\
module p(input a, input b, input c, output y);
  assign y = a | b & c;
endmodule
""")
    expr = d.assigns[0].expr
    assert expr.kind == "or"
    assert expr.args[1].kind == "and"


def test_precedence_xor_between_or_and_and():
    d = parse("module p(input a, input b, input c, output y); "
              "assign y = a ^ b & c; endmodule")
    expr = d.assigns[0].expr
    assert expr.kind == "xor" and expr.args[1].kind == "and"


def test_slice_shift_ternary():
    d = parse("""\
module s(input [7:0] a, input c, output [3:0] y);
  assign y = c ? (a >> 2)[3:0] : a[7:4];
endmodule
""")
    expr = d.assigns[0].expr
    assert expr.kind == "mux"
    assert expr.args[1].kind == "slice"
    assert expr.args[1].args[0].kind == "shr"
    assert expr.args[2].msb == 7 and expr.args[2].lsb == 4
    assert expr.width == 4


@pytest.mark.parametrize("source,err", [
    ("module m(input a output y); assign y = a; endmodule", RtlSyntaxError),
    ("module m(input a, output y); assign y = a", RtlSyntaxError),
    ("module m(input a, output y); assign y = a; assign y = ~a; endmodule",
     RtlSemanticError),                       # two drivers
    ("module m(input a, output y); assign y = b; endmodule",
     RtlSemanticError),                       # undeclared net
    ("module m(input a, output y); wire t; assign y = a; endmodule",
     RtlSemanticError),                       # undriven wire
    ("module m(input a, output y); endmodule", RtlSemanticError),  # undriven out
    ("module m(input [1:0] a, input b, output [1:0] y); assign y = a + b; endmodule",
     RtlSemanticError),                       # width mismatch, no extension
    ("module m(input [1:0] a, input [1:0] c, input [1:0] b, output [1:0] y);"
     " assign y = c ? a : b; endmodule",
     RtlSemanticError),                       # mux condition must be 1 bit
    ("module m(input [1:0] a, output [1:0] y); assign y = a + 2'd4; endmodule",
     RtlSyntaxError),                         # constant exceeds its width
    ("module m(input [64:0] a, output y); assign y = a[0:0]; endmodule",
     RtlSemanticError),                       # width > 64
    ("module m(input a, input a, output y); assign y = a; endmodule",
     RtlSemanticError),                       # duplicate declaration
    ("module m(input [3:0] a, output y); assign y = a[4:4]; endmodule",
     RtlSemanticError),                       # slice out of range
    ("module m(input [3:0] a, output [3:0] y); assign y = a << 4; endmodule",
     RtlSemanticError),                       # shift amount >= width
])
def test_rejections(source, err):
    with pytest.raises(err):
        parse(source)


def test_errors_carry_location():
    with pytest.raises(RtlSemanticError) as e:
        parse("module m(input a, output y);\n  assign y = nope;\nendmodule")
    assert "2" in str(e.value)


def test_combinational_cycle_detected():
    with pytest.raises(RtlSemanticError) as e:
        parse("""\
module loop(input a, output y);
  wire t;
  wire u;
  assign t = u & a;
  assign u = t | a;
  assign y = t;
endmodule
""")
    assert "cycle" in str(e.value).lower()


def test_register_breaks_cycle():
    d = parse("""\
module ok(input a, output y);
  reg q;
  assign y = q ^ a;
  always_ff begin
    q <= y;
  end
endmodule
""")
    assert topo_order(d)


def test_roundtrip_stable():
    source = """\
module rt(input [3:0] a, input [3:0] b, input s, output [3:0] y);
  reg [3:0] q;
  wire [3:0] t;
  assign t = (a + b) ^ (a & b);
  assign y = s ? q : t[3:0];
  always_ff begin
    q <= t - 4'd1;
  end
endmodule
"""
    once = print_design(parse(source))
    twice = print_design(parse(once))
    assert once == twice


def test_exprs_equal_by_value_not_location():
    tight = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y); "
                  "assign y = a+b; endmodule").assigns[0].expr
    loose = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y);\n\n"
                  "  assign y =   ( a  +  b );\nendmodule\n").assigns[0].expr
    assert tight.loc != loose.loc
    assert tight == loose and hash(tight) == hash(loose)
    swapped = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y); "
                    "assign y = b + a; endmodule").assigns[0].expr
    assert tight != swapped


def test_print_expr_fully_parenthesized():
    d = parse("module e(input a, input b, input c, output y); "
              "assign y = a | b & c; endmodule")
    assert print_expr(d.assigns[0].expr) == "(a | (b & c))"
