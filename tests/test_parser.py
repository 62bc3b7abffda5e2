"""Parser, elaboration, and printer round-trip tests."""

import gc
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from rtlopt.backend import BackendConfig, GoldenSec, synthesize
from rtlopt.dsl import (
    Assign,
    CompiledDesign,
    Expr,
    Net,
    Port,
    RtlDesign,
    RtlSemanticError,
    RtlSyntaxError,
    parse,
    print_design,
    print_expr,
    simulate,
    topo_order,
)
from rtlopt.dsl.ast import _INTERNED
from rtlopt.dsl.parser import _DESIGNS
from rtlopt.timing import Stage, diagnose, select_critical_paths


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
    """Texts that differ only in spacing parse to the very same nodes; only
    the statements' locations differ."""
    tight = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y); "
                  "assign y = a+b; endmodule").assigns[0]
    loose = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y);\n\n"
                  "  assign y =   ( a  +  b );\nendmodule\n").assigns[0]
    assert tight.locs != loose.locs
    assert tight.expr is loose.expr
    swapped = parse("module e(input [3:0] a, input [3:0] b, output [3:0] y); "
                    "assign y = b + a; endmodule").assigns[0].expr
    assert tight.expr != swapped


def test_reparsed_print_returns_the_same_nodes():
    design = parse(_SHARING)
    again = parse(print_design(design))
    assert all(x.expr is y.expr for x, y in zip(again.assigns, design.assigns))
    assert all(x.next is y.next for x, y in zip(again.registers, design.registers))


def test_intern_table_forgets_dropped_designs():
    """The table holds its nodes weakly: once a design is dropped, none of
    its nodes stays alive or keeps an entry, so long runs do not grow it."""
    gc.collect()
    before = len(_INTERNED)
    # Names and constants no other test uses, so no other design shares a node.
    design = parse("module dropped(input [6:0] gc_a, input gc_s, output [6:0] gc_y);\n"
                   "  assign gc_y = gc_s ? (gc_a + 7'd93) : ~gc_a;\nendmodule\n")
    nodes = [weakref.ref(node) for _, expr in design.all_exprs() for node in expr.walk()]
    assert len(_INTERNED) > before
    del design
    gc.collect()
    assert all(ref() is None for ref in nodes)
    assert len(_INTERNED) == before


def test_design_table_returns_the_live_design_and_forgets_dropped_ones():
    gc.collect()
    before = len(_DESIGNS)
    source = ("module kept(input [5:0] dt_a, output [5:0] dt_y);\n"
              "  assign dt_y = (dt_a ^ 6'd45);\nendmodule\n")
    design = parse(source, "kept.rtl")
    assert parse(source, "kept.rtl") is design
    assert parse(print_design(design), "kept.rtl") is design  # canonical text
    assert parse(source, "other.rtl") is not design
    assert len(_DESIGNS) == before + 1
    del design
    gc.collect()
    assert (source, "kept.rtl") not in _DESIGNS
    assert len(_DESIGNS) == before


def _statements(design):
    """Every statement with its nodes (compared by identity) and locations."""
    return ([(a.target, a.expr, a.loc, a.locs) for a in design.assigns],
            [(r.name, r.width, r.next, r.loc, r.locs) for r in design.registers])


def _same_as_text(printed):
    """The design of printer output, checked against the design of its plain
    text (another filename, so the design table cannot answer)."""
    fast = parse(printed, "printed.rtl")
    slow = parse(str(printed), "text.rtl")
    assert (fast.name, fast.ports, fast.nets) == (slow.name, slow.ports, slow.nets)
    assert _statements(fast) == _statements(slow)
    assert fast.source == slow.source and type(fast.source) is str
    return fast


_A4, _B1 = Expr("var", 4, name="a"), Expr("var", 1, name="b")
_T, _U = Expr("var", 4, name="t"), Expr("var", 4, name="u")


def _draft(*assigns, nets=()):
    """A design built in memory, as rewrites build them: nothing checked yet."""
    ports = (Port("a", "input", 4), Port("b", "input", 1), Port("y", "output", 4))
    return RtlDesign("m", "", ports, tuple(Net(n, 4) for n in nets), (), assigns)


@pytest.mark.parametrize("draft,message,line,col", [
    (_draft(Assign("y", Expr("add", 4, (_A4, _B1)))),
     "operands of add have mismatched widths 4 and 1", 2, 17),
    (_draft(Assign("y", Expr("xor", 4, (_A4, Expr("var", 4, name="nope"))))),
     "undeclared identifier 'nope'", 2, 19),
    (_draft(Assign("y", _A4), Assign("y", Expr("not", 4, (_A4,)))),
     "multiple drivers for 'y'", 3, 3),
    (_draft(Assign("y", _T), Assign("t", Expr("and", 4, (_U, _A4))),
            Assign("u", Expr("or", 4, (_T, _A4))), nets=("t", "u")),
     "combinational cycle through t -> u -> t", 5, 3),
], ids=["width mismatch", "undeclared variable", "double driver", "cycle"])
def test_ill_formed_drafts_raise_the_errors_of_their_text(draft, message, line, col):
    printed = print_design(draft)
    for source in (printed, str(printed)):
        with pytest.raises(RtlSemanticError) as e:
            parse(source)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def test_printer_output_is_parsed_as_its_text():
    """Text states no node's width, so neither does the printer's draft: a
    node whose recorded width breaks its rule comes back as the text says,
    and a constant too wide for its width fails as its text does."""
    printed = print_design(_draft(Assign("y", Expr("add", 3, (_A4, _A4)))))
    assert _same_as_text(printed).assigns[0].expr is Expr("add", 4, (_A4, _A4))
    printed = print_design(_draft(Assign("y", Expr("const", 4, value=16))))
    for source in (printed, str(printed)):
        with pytest.raises(RtlSyntaxError) as e:
            parse(source)
        assert (e.value.message, e.value.line, e.value.col) == (
            "constant value 16 does not fit in 4 bits", 2, 14)


_SHARING = """\
module sharing(input [5:0] a, input [5:0] b, input s, output [5:0] y, output [5:0] z);
  reg [5:0] q;
  assign y = s ? (a + b) : (q ^ 6'd9);
  assign z = (a + b) - q;
  always_ff begin
    q <= (a + b) & ~q;
  end
endmodule
"""


def test_print_expr_fully_parenthesized():
    d = parse("module e(input a, input b, input c, output y); "
              "assign y = a | b & c; endmodule")
    assert print_expr(d.assigns[0].expr) == "(a | (b & c))"


def test_fold_visits_every_occurrence_children_first_left_to_right():
    a = Expr("var", 4, name="a")
    shared = Expr("not", 4, (a,))
    root = Expr("mux", 4, (Expr("var", 1, name="s"), Expr("add", 4, (shared, shared)), a))
    visited = []

    def visit(node, values):
        visited.append(node.name or node.kind)
        return f"{node.name or node.kind}({','.join(values)})"

    assert root.fold(visit) == "mux(s(),add(not(a()),not(a())),a())"
    assert visited == ["s", "a", "not", "a", "not", "add", "a", "mux"]


_HEAD = "module m(input a, input [3:0] b, output [3:0] y);\n"
_END = "endmodule\n"


def _body(*lines):
    return _HEAD + "".join(f"  {line}\n" for line in lines) + _END


# One input per raise site of the front end, with the exact message and
# location: an LLM reply that fails to parse carries this text into its
# transcript, so it must not drift.
_ERRORS = [
    ("end of input", _HEAD + "  assign y = b", RtlSyntaxError,
     "expected ';', found 'end of input'", 2, 15),
    ("end of input in body", _HEAD + "  assign y = b;\n", RtlSyntaxError,
     "expected statement, found ''", 3, 1),
    ("unexpected character", _body("assign y = b @ b;"), RtlSyntaxError,
     "unexpected character '@'", 2, 16),
    ("unclosed paren", _body("assign y = (b + b;"), RtlSyntaxError,
     "expected ')', found ';'", 2, 20),
    ("mux without colon", _body("assign y = a ? b ;"), RtlSyntaxError,
     "expected ':', found ';'", 2, 20),
    ("mux without else", _body("assign y = a ? b : ;"), RtlSyntaxError,
     "expected expression, found ';'", 2, 22),
    ("operator after shift", _body("assign y = b << 1 + b;"), RtlSyntaxError,
     "expected ';', found '+'", 2, 21),
    ("shift by non-int", _body("assign y = b << b;"), RtlSyntaxError,
     "expected 'int', found 'b'", 2, 19),
    ("unclosed slice", _body("assign y = b[3:0;"), RtlSyntaxError,
     "expected ']', found ';'", 2, 19),
    ("slice without msb", _body("assign y = b[a];"), RtlSyntaxError,
     "expected 'int', found 'a'", 2, 16),
    ("keyword as expression", _body("assign y = wire;"), RtlSyntaxError,
     "expected expression, found 'wire'", 2, 14),
    ("keyword module name", "module wire(input a, output y);\n  assign y = a;\nendmodule\n",
     RtlSyntaxError, "keyword 'wire' cannot name a module", 1, 8),
    ("missing module", "assign y = a;\n", RtlSyntaxError,
     "expected 'module', found 'assign'", 1, 1),
    ("nonzero lsb", "module m(input [3:1] a, output y);\n  assign y = a[1:1];\nendmodule\n",
     RtlSyntaxError, "declarations must use [msb:0] ranges", 1, 19),
    ("port direction", "module m(a, output y);\n  assign y = a;\nendmodule\n",
     RtlSyntaxError, "expected port direction, found 'a'", 1, 10),
    ("statement expected", _body(";"), RtlSyntaxError,
     "expected statement, found ';'", 2, 3),
    ("unexpected ident", _body("input c;"), RtlSyntaxError, "unexpected 'input'", 2, 3),
    ("oversized constant", _body("assign y = 4'd16;"), RtlSyntaxError,
     "constant value 16 does not fit in 4 bits", 2, 14),
    ("digit outside its base", _body("assign y = 4'b12;"), RtlSyntaxError,
     "invalid digits in constant \"4'b12\"", 2, 14),
    ("constant without digits", _body("assign y = 4'd_;"), RtlSyntaxError,
     "invalid digits in constant \"4'd_\"", 2, 14),
    ("zero width constant", _body("assign y = 0'd0;"), RtlSyntaxError,
     "constant width 0 outside [1, 64]", 2, 14),
    ("wide constant", _body("assign y = 65'd0;"), RtlSyntaxError,
     "constant width 65 outside [1, 64]", 2, 14),
    ("trailing tokens", _body("assign y = b;") + "endmodule\n", RtlSyntaxError,
     "expected 'eof', found 'endmodule'", 4, 1),
    ("undeclared identifier", _body("assign y = b + nope;"), RtlSemanticError,
     "undeclared identifier 'nope'", 2, 18),
    ("shift amount", _body("assign y = b >> 4;"), RtlSemanticError,
     "shift amount 4 outside operand width 4", 2, 16),
    ("slice range", _body("assign y = b[4:1];"), RtlSemanticError,
     "slice [4:1] outside operand width 4", 2, 15),
    ("mux condition width", _body("assign y = b ? b : b;"), RtlSemanticError,
     "mux condition must be 1 bit, got 4", 2, 16),
    ("mux arm widths", _body("assign y = a ? b : a;"), RtlSemanticError,
     "mux arms have mismatched widths 4 and 1", 2, 16),
    ("operand widths", _body("assign y = b & a;"), RtlSemanticError,
     "operands of and have mismatched widths 4 and 1", 2, 16),
    ("inner error first", _body("assign y = b ? nope : a;"), RtlSemanticError,
     "undeclared identifier 'nope'", 2, 18),
    ("left operand first", _body("assign y = (b & a) + nope;"), RtlSemanticError,
     "operands of and have mismatched widths 4 and 1", 2, 17),
    ("duplicate declaration", _body("wire b;", "assign y = b;"), RtlSemanticError,
     "duplicate declaration of 'b'", 2, 8),
    ("declared width", "module m(input [64:0] a, output y);\n  assign y = a[0:0];\nendmodule\n",
     RtlSemanticError, "width 65 of 'a' outside [1, 64]", 1, 23),
    ("undeclared target", _body("assign z = b;"), RtlSemanticError,
     "undeclared target 'z'", 2, 3),
    ("drive width", _body("assign y = a;"), RtlSemanticError,
     "cannot drive 4-bit 'y' with 1-bit expression", 2, 3),
    ("register assigned", _body("reg [3:0] q;", "assign q = b;", "assign y = q;"),
     RtlSemanticError, "register 'q' driven by assign", 3, 3),
    ("input driven", _body("assign b = y;", "assign y = b;"), RtlSemanticError,
     "input port 'b' cannot be driven", 2, 3),
    ("multiple drivers", _body("assign y = b;", "assign y = ~b;"), RtlSemanticError,
     "multiple drivers for 'y'", 3, 3),
    ("update of a wire", _body("wire [3:0] t;", "assign t = b;", "assign y = t;",
                               "always_ff begin", "  t <= b;", "end"),
     RtlSemanticError, "'t' is not a reg", 6, 5),
    ("multiple register drivers", _body("reg [3:0] q;", "assign y = q;", "always_ff begin",
                                        "  q <= b;", "  q <= ~b;", "end"),
     RtlSemanticError, "multiple drivers for register 'q'", 6, 5),
    ("undriven net", _body("wire t;", "assign y = b;"), RtlSemanticError,
     "net 't' has no driver", 2, 8),
    ("undriven output", _HEAD + _END, RtlSemanticError, "output 'y' has no driver", 1, 47),
    ("undriven register", _body("reg [3:0] q;", "assign y = q;"), RtlSemanticError,
     "register 'q' has no driver", 2, 13),
    ("combinational cycle", _body("wire [3:0] t;", "wire [3:0] u;", "assign y = t;",
                                  "assign t = u & b;", "assign u = t | b;"),
     RtlSemanticError, "combinational cycle through t -> u -> t", 5, 3),
    ("cycle reached through a chain",
     _body("wire [3:0] t;", "wire [3:0] u;", "wire [3:0] v;", "assign y = t;",
           "assign t = u & b;", "assign u = v | b;", "assign v = u ^ b;"),
     RtlSemanticError, "combinational cycle through u -> v -> u", 7, 3),
]


@pytest.mark.parametrize("source,err,message,line,col",
                         [case[1:] for case in _ERRORS], ids=[case[0] for case in _ERRORS])
def test_error_message_and_location(source, err, message, line, col):
    with pytest.raises(err) as e:
        parse(source)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


@contextmanager
def _recursion_headroom(frames=60):
    """Lower the recursion limit to the current depth plus ``frames``, so
    code that recurses once per nesting level fails at any real depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _one_assign(expr):
    return f"module deep(input [7:0] a, output [7:0] y);\n  assign y = {expr};\nendmodule\n"


def _reverse_chain(n, step="+ a"):
    """``n`` wires, each reading the one before, with the assigns listed
    last wire first, so the cycle check walks the whole chain at once."""
    lines = [f"  wire [7:0] w{k};" for k in range(n)] + [f"  assign y = w{n - 1};"]
    lines += [f"  assign w{k} = w{k - 1} {step};" for k in range(n - 1, 0, -1)]
    lines.append("  assign w0 = a;")
    return ("module chain(input [7:0] a, input [7:0] b, output [7:0] y);\n"
            + "\n".join(lines) + "\nendmodule\n")


def _expr_nodes(design):
    return sum(1 for _ in design.assigns[0].expr.walk())


def _chain_order(d, n):
    return [a.target for a in topo_order(d)] == [f"w{k}" for k in range(n)] + ["y"]


def _structure(design):
    """What ``==`` compares on a design, less its source text and source
    locations, with each expression flattened by the iterative ``walk``:
    ``Expr.__eq__`` still recurses once per level."""
    def nodes(expr):
        return [(n.kind, n.width, n.name, n.value, n.amount, n.msb, n.lsb)
                for n in expr.walk()]
    return (design.name, design.ports, design.nets,
            [(r.name, r.width, nodes(r.next)) for r in design.registers],
            [(a.target, nodes(a.expr)) for a in design.assigns])


def _through_every_layer(design):
    """Print, simulate one frame on both engines, prove, synthesize and
    diagnose ``design``; returns the diagnosis of its worst path."""
    assert _structure(parse(print_design(design))) == _structure(design)
    frame = {p.name: (0x5A + i) & ((1 << p.width) - 1)
             for i, p in enumerate(design.input_ports)}
    compiled = CompiledDesign(design).run(
        [{name: np.array([v], dtype=np.uint64) for name, v in frame.items()}], 1)
    assert {name: int(v[0]) for name, v in compiled[0].items()} == simulate(design, [frame], 1)[0]
    assert GoldenSec(design).proves(design)
    return _worst_diagnosis(design)


def _worst_diagnosis(design):
    report = synthesize(design, BackendConfig())[1]
    return diagnose(select_critical_paths(report, 1)[0], design)


# (source of size n, size, check of the parsed design at that size)
_DEEP_AND_WIDE = {
    "parenthesized chain": (lambda n: _one_assign("(" * n + "a" + " + a)" * n), 1000,
                            lambda d, n: _expr_nodes(d) == 2 * n + 1),
    "flat adder": (lambda n: _one_assign(" + ".join(["a"] * n)), 3000,
                   lambda d, n: _expr_nodes(d) == 2 * n - 1),
    "nested nots": (lambda n: _one_assign("~" * n + "a"), 1000,
                    lambda d, n: _expr_nodes(d) == n + 1),
    "reverse-ordered chain": (_reverse_chain, 2000, _chain_order),
    # Every wire reads b again, so diagnosis reaches its reconvergence rule.
    "bitwise wire chain": (lambda n: _reverse_chain(n, "^ b"), 2000,
                           lambda d, n: _chain_order(d, n)
                           and _worst_diagnosis(d).root_cause == "reconvergent"),
}


def _best_seconds(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("shape", list(_DEEP_AND_WIDE))
def test_deep_and_wide_inputs_parse_in_linear_time(shape):
    """Each shape parses in linear time, as text and as printer output, then
    goes through every layer of the loop, all without recursing per level
    or per wire; its timing analysis takes linear time too."""
    build, n, check = _DEEP_AND_WIDE[shape]
    small, large = build(n // 4), build(n)
    with _recursion_headroom():
        design = parse(large)
        assert check(design, n)
        _through_every_layer(design)
        assert check(_same_as_text(print_design(design)), n)
        del design  # while it lives, parsing its text again returns it
        quarter = _best_seconds(lambda: parse(small))
        full = _best_seconds(lambda: parse(large))
        # Printer output, under a filename no live design has.
        designs = parse(small), parse(large)
        printed = [_best_seconds(lambda: parse(print_design(d), "printed.rtl"))
                   for d in designs]
        # Timing analysis from n to 4n: at this size a quadratic one shows.
        synthesized = [_best_seconds(lambda: synthesize(d, BackendConfig()))
                       for d in (designs[1], parse(build(4 * n)))]
    # Four times the input takes about four times as long when parsing is
    # linear, and sixteen times when it is quadratic.
    assert full < 10 * quarter, (full, quarter)
    assert printed[1] < 10 * printed[0], printed
    assert synthesized[1] < 10 * synthesized[0], synthesized


def test_topo_order_is_kept_on_the_design():
    """Elaboration's order is the one every later call returns, and it is
    the order a fresh depth-first walk gives."""
    design = parse(_reverse_chain(50))
    order = topo_order(design)
    assert topo_order(design) is order and _chain_order(design, 50)
    fresh = replace(design)  # a copy holds no order until asked
    assert fresh._order is None and topo_order(fresh) == order


@pytest.mark.parametrize("shape", [*_DEEP_AND_WIDE, "fanout and registers"])
def test_synthesis_builds_stages_only_for_reported_paths(shape, monkeypatch):
    """One ``Stage`` is built per stage of a reported endpoint path, however
    many nodes the arrivals pass through."""
    import rtlopt.backend as backend
    from corpus import CHAIN_ADDER_8_REG, REWRITE_CORPUS

    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return Stage(*args, **kwargs)

    if shape in _DEEP_AND_WIDE:
        build, n, _ = _DEEP_AND_WIDE[shape]
        designs = [parse(build(n))]
    else:
        designs = [parse(text) for text in (CHAIN_ADDER_8_REG, *REWRITE_CORPUS)]
    monkeypatch.setattr(backend, "Stage", counted)
    for design in designs:
        built.clear()
        report = synthesize(design, BackendConfig())[1]
        assert len(built) == sum(len(p.stages) for p in report.endpoints) > 0
