"""Parser and elaborator for the RTL-lite grammar.

Grammar (one module per file, `//` comments):

    module NAME(input [7:0] a, output y);
      wire [7:0] t;
      reg  [7:0] q;
      assign t = (a + 8'd1);
      assign y = t[0:0];
      always_ff begin
        q <= t;
      end
    endmodule

Constants carry an explicit width (`8'd255`, `1'b0`, `4'hf`); there is no
implicit width extension anywhere, so width mismatches are rejected during
elaboration rather than silently padded.

Operators, loosest first; binary operators are left-associative:

    c ? a : b        mux, right-associative; a condition that is itself a
                     mux must be parenthesized
    |  ^  &  ==  <   binary
    x << k, x >> k   shift by an integer; only a shift or a looser operator
                     may follow, so `a << 1 + b` is an error
    +  -             binary
    ~x               not
    x[m:l], x[m]     slice

Parsing is two steps. Syntax turns text into a located draft: declarations
with their locations and each statement's expression as a postfix list.
Elaboration checks a draft (declarations, the width rule of every node,
drivers, the cycle check) and builds the design. Printer output carries the
draft the syntax step would build from it, so it goes straight to
elaboration: it gives the design, or the error and location, its text
gives, without being tokenized.

The front end is iterative, so nesting depth is bounded by memory, not by
Python's recursion limit: the expression parser keeps operators on an
explicit stack and emits postfix order, elaboration evaluates that postfix
list on an operand stack, and the cycle check walks an explicit path.
"""

from __future__ import annotations

import re
import weakref

from .ast import (
    BINARY_OPS,
    MAX_WIDTH,
    Assign,
    Expr,
    Net,
    Port,
    Register,
    RtlDesign,
    RtlSemanticError,
    RtlSyntaxError,
)
from .printer import PrintedText

KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "reg",
    "assign", "always_ff", "begin", "end",
}

# One token after any whitespace, matched within one line's code (the
# text before its first `//`).
_TOKEN_RE = re.compile(
    r"""(\s*)(
        \d+'[bdh][0-9a-fA-F_]+         # sized constant
      | [A-Za-z_][A-Za-z0-9_]*          # identifier or keyword
      | \d+                             # integer
      | <<|>>|==|<=|[()\[\];,:?=~&|^+\-<]
    )""",
    re.VERBOSE,
)
_BASES = {"b": 2, "d": 10, "h": 16}

# Binary operator token -> (precedence, kind); a higher precedence binds
# tighter. Shifts sit at _SHIFT, between `<` and `+`; 0 marks the bottom of
# the operator stack and each open `(`, `?` or `:`; _ANY admits every operator.
_BINARY = {"|": (1, "or"), "^": (2, "xor"), "&": (3, "and"), "==": (4, "eq"),
           "<": (5, "lt"), "+": (7, "add"), "-": (7, "sub")}
_SHIFT = 6
_SHIFTS = {"<<": "shl", ">>": "shr"}
_ANY = 7


def _tokenize(source: str) -> list[tuple[str, int, int]]:
    """Tokens as ``(text, line, col)``, ending in an empty end-of-input token.

    A token's kind follows from its text: an identifier or keyword passes
    ``str.isidentifier``, an integer ``str.isdecimal``, a sized constant
    holds a quote, and every other token is an operator."""
    tokens = []
    append = tokens.append
    for line, text in enumerate(source.split("\n"), 1):
        code = text.partition("//")[0]
        col = 1
        for space, tok in _TOKEN_RE.findall(code):
            col += len(space)
            append((tok, line, col))
            col += len(tok)
        # findall skips a character that starts no token, which leaves the
        # running column short of the last token's end.
        if code[col - 1:].strip():
            pos = 0
            while m := _TOKEN_RE.match(code, pos):
                pos = m.end()
            rest = code[pos:].lstrip()
            raise RtlSyntaxError(f"unexpected character {rest[0]!r}",
                                 line, len(code) - len(rest) + 1)
    append(("", line, len(text) + 1))
    return tokens


def _expected(what: str, tok: tuple) -> RtlSyntaxError:
    return RtlSyntaxError(f"expected {what}, found {tok[0] or 'end of input'!r}",
                          tok[1], tok[2])


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.i = 0

    def next(self) -> tuple:
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, text: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != text:
            raise _expected(repr(text), tok)
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.tokens[self.i][0] == text:
            self.i += 1
            return True
        return False

    def name(self) -> tuple:
        tok = self.tokens[self.i]
        if not tok[0].isidentifier():
            raise _expected("'ident'", tok)
        self.i += 1
        return tok

    def number(self) -> int:
        tok = self.tokens[self.i]
        if not tok[0].isdecimal():
            raise _expected("'int'", tok)
        self.i += 1
        return int(tok[0])

    # --- declarations -----------------------------------------------------

    def parse_module(self):
        self.expect("module")
        name, line, col = self.name()
        if name in KEYWORDS:
            raise RtlSyntaxError(f"keyword {name!r} cannot name a module", line, col)
        self.expect("(")
        ports = [self.parse_port()]
        while self.accept(","):
            ports.append(self.parse_port())
        self.expect(")")
        self.expect(";")

        wires, regs, stmts = [], [], []
        while not self.accept("endmodule"):
            text, line, col = self.tokens[self.i]
            if text == "wire":
                wires.append(self.parse_decl())
            elif text == "reg":
                regs.append(self.parse_decl())
            elif text == "assign":
                stmts.append(self.parse_assign())
            elif text == "always_ff":
                stmts.extend(self.parse_always())
            elif text.isidentifier():
                raise RtlSyntaxError(f"unexpected {text!r}", line, col)
            else:
                raise RtlSyntaxError(f"expected statement, found {text!r}", line, col)
        if self.tokens[self.i][0]:
            raise _expected("'eof'", self.tokens[self.i])
        return name, ports, wires, regs, stmts

    def parse_width(self) -> int:
        """Optional `[msb:0]` declaration; returns width in bits."""
        if not self.accept("["):
            return 1
        msb = self.number()
        self.expect(":")
        _, line, col = self.tokens[self.i]
        lsb = self.number()
        self.expect("]")
        if lsb != 0:
            raise RtlSyntaxError("declarations must use [msb:0] ranges", line, col)
        return msb + 1

    def parse_port(self):
        direction, line, col = self.tokens[self.i]
        if direction not in ("input", "output"):
            raise RtlSyntaxError(f"expected port direction, found {direction!r}", line, col)
        self.i += 1
        width = self.parse_width()
        name, line, col = self.name()
        return Port(name, direction, width), (line, col)

    def parse_decl(self):
        self.i += 1  # `wire` or `reg`
        width = self.parse_width()
        name, line, col = self.name()
        self.expect(";")
        return name, width, (line, col)

    def parse_assign(self) -> tuple:
        _, line, col = self.expect("assign")
        target = self.name()[0]
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return "assign", target, expr, (line, col)

    def parse_always(self) -> list[tuple]:
        self.expect("always_ff")
        self.expect("begin")
        updates = []
        while not self.accept("end"):
            target, line, col = self.name()
            self.expect("<=")
            expr = self.parse_expr()
            self.expect(";")
            updates.append(("regupdate", target, expr, (line, col)))
        return updates

    # --- expressions (operator precedence, explicit stack) ----------------

    def parse_expr(self) -> list[tuple]:
        """One expression as a postfix list of ``(kind, loc, p, q)`` items:
        width/value for a constant, the name for a variable, the amount for
        a shift and msb/lsb for a slice. ``ops`` holds pending binary
        operators above a marker for the expression and for each open `(`
        (with the `~`s before it), `?` and `:`. ``ceiling`` is the tightest
        operator that may follow the operand: after a shift, only a shift or
        a looser operator."""
        tokens = self.tokens
        out: list[tuple] = []
        ops: list[tuple] = [(0, "", None)]
        closed = False  # a `)` just closed; its slices and `~`s come next
        while True:
            if not closed:
                nots = []
                while tokens[self.i][0] == "~":
                    nots.append(self.next())
                text, line, col = tok = self.next()
                if text == "(":
                    ops.append((0, "(", nots))
                    continue
                if text.isidentifier() and text not in KEYWORDS:
                    out.append(("var", (line, col), text, None))
                elif "'" in text:
                    out.append(_constant(tok))
                else:
                    raise _expected("expression", tok)
            closed = False
            while tokens[self.i][0] == "[":  # slices bind tighter than `~`
                _, line, col = self.next()
                msb = lsb = self.number()
                if self.accept(":"):
                    lsb = self.number()
                self.expect("]")
                out.append(("slice", (line, col), msb, lsb))
            for _, line, col in reversed(nots):
                out.append(("not", (line, col), None, None))
            ceiling = _ANY
            while True:
                text, line, col = tok = tokens[self.i]
                op = _BINARY.get(text)
                if op and op[0] <= ceiling:
                    while ops[-1][0] >= op[0]:
                        out.append(ops.pop()[1:] + (None, None))
                    ops.append((*op, (line, col)))
                    self.i += 1
                    break
                if text in _SHIFTS:
                    while ops[-1][0] > _SHIFT:
                        out.append(ops.pop()[1:] + (None, None))
                    self.i += 1
                    out.append((_SHIFTS[text], (line, col), self.number(), None))
                    ceiling = _SHIFT
                    continue
                # The innermost `(`, `?` or `:`, or the whole expression, ends.
                while ops[-1][0]:
                    out.append(ops.pop()[1:] + (None, None))
                if text == "?":
                    ops.append((0, "?", (line, col)))
                    self.i += 1
                    break
                while ops[-1][1] == ":":  # each `:` arm ends here too
                    out.append(("mux", ops.pop()[2], None, None))
                _, mark, extra = ops[-1]
                if not mark:
                    return out
                if mark == "?":
                    if text != ":":
                        raise _expected("':'", tok)
                    ops[-1] = (0, ":", extra)
                    self.i += 1
                    break
                if text != ")":
                    raise _expected("')'", tok)
                ops.pop()
                nots = extra
                closed = True
                self.i += 1
                break


def _constant(tok: tuple) -> tuple:
    text, line, col = tok
    width_text, _, rest = text.partition("'")
    width = int(width_text)
    try:
        value = int(rest[1:].replace("_", ""), _BASES[rest[0]])
    except ValueError:
        raise RtlSyntaxError(f"invalid digits in constant {text!r}", line, col) from None
    _check_constant(width, value, (line, col))
    return "const", (line, col), width, value


def _check_constant(width: int, value: int, loc: tuple[int, int]):
    if width < 1 or width > MAX_WIDTH:
        raise RtlSyntaxError(f"constant width {width} outside [1, {MAX_WIDTH}]", *loc)
    if value >= (1 << width):
        raise RtlSyntaxError(f"constant value {value} does not fit in {width} bits", *loc)


# --- elaboration ----------------------------------------------------------


def _elaborate_expr(postfix: list[tuple], widths: dict[str, int]) -> tuple[Expr, tuple]:
    """The expression of a postfix list and its node locations, postfix order
    being fold order. Each node is checked after its operands, left to right,
    which is the order a recursive walk would raise its first error in."""
    stack: list[Expr] = []
    for kind, loc, p, q in postfix:
        if kind == "var":
            if p not in widths:
                raise RtlSemanticError(f"undeclared identifier {p!r}", *loc)
            stack.append(Expr("var", widths[p], name=p))
        elif kind == "const":
            _check_constant(p, q, loc)  # again for text; a draft's come from code
            stack.append(Expr("const", p, value=q))
        elif kind in BINARY_OPS:
            b = stack.pop()
            a = stack.pop()
            if a.width != b.width:
                raise RtlSemanticError(
                    f"operands of {kind} have mismatched widths {a.width} and {b.width}", *loc)
            width = 1 if kind in ("eq", "lt") else a.width
            stack.append(Expr(kind, width, args=(a, b)))
        elif kind == "mux":
            b = stack.pop()
            a = stack.pop()
            cond = stack.pop()
            if cond.width != 1:
                raise RtlSemanticError(f"mux condition must be 1 bit, got {cond.width}", *loc)
            if a.width != b.width:
                raise RtlSemanticError(
                    f"mux arms have mismatched widths {a.width} and {b.width}", *loc)
            stack.append(Expr("mux", a.width, args=(cond, a, b)))
        else:
            arg = stack.pop()
            if kind == "not":
                stack.append(Expr("not", arg.width, args=(arg,)))
            elif kind == "slice":
                if not (0 <= q <= p < arg.width):
                    raise RtlSemanticError(
                        f"slice [{p}:{q}] outside operand width {arg.width}", *loc)
                stack.append(Expr("slice", p - q + 1, args=(arg,), msb=p, lsb=q))
            else:
                if p < 0 or p >= arg.width:
                    raise RtlSemanticError(
                        f"shift amount {p} outside operand width {arg.width}", *loc)
                stack.append(Expr(kind, arg.width, args=(arg,), amount=p))
    return stack[0], tuple(item[1] for item in postfix)


def _elaborate(draft: tuple, source: str, filename: str) -> RtlDesign:
    """Check a located draft and build its design: declarations, the width
    rule of every node, drivers, then the cycle check. A draft is ``(name,
    ports, wires, regs, statements)`` with ``(Port, loc)`` ports, ``(name,
    width, loc)`` declarations and ``(kind, target, postfix, loc)``
    statements."""
    name, port_decls, wires, regs, stmts = draft
    widths: dict[str, int] = {}
    decl_locs: dict[str, tuple[int, int]] = {}

    ports = [port for port, _ in port_decls]
    decls = [(p.name, p.width, loc) for p, loc in port_decls] + wires + regs
    for ident, width, loc in decls:
        if ident in widths:
            raise RtlSemanticError(f"duplicate declaration of {ident!r}", *loc)
        if width < 1 or width > MAX_WIDTH:
            raise RtlSemanticError(f"width {width} of {ident!r} outside [1, {MAX_WIDTH}]", *loc)
        widths[ident] = width
        decl_locs[ident] = loc
    nets = [Net(wname, wwidth) for wname, wwidth, _ in wires]
    reg_widths = {rname: rwidth for rname, rwidth, _ in regs}

    port_dirs = {p.name: p.direction for p in ports}

    assigns: list[Assign] = []
    reg_updates: dict[str, Register] = {}
    driven: set[str] = set()
    for kind, target, postfix, loc in stmts:
        if target not in widths:
            raise RtlSemanticError(f"undeclared target {target!r}", *loc)
        expr, locs = _elaborate_expr(postfix, widths)
        if expr.width != widths[target]:
            raise RtlSemanticError(
                f"cannot drive {widths[target]}-bit {target!r} "
                f"with {expr.width}-bit expression", *loc)
        if kind == "assign":
            if target in reg_widths:
                raise RtlSemanticError(f"register {target!r} driven by assign", *loc)
            if port_dirs.get(target) == "input":
                raise RtlSemanticError(f"input port {target!r} cannot be driven", *loc)
            if target in driven:
                raise RtlSemanticError(f"multiple drivers for {target!r}", *loc)
            driven.add(target)
            assigns.append(Assign(target, expr, loc, locs))
        else:
            if target not in reg_widths:
                raise RtlSemanticError(f"{target!r} is not a reg", *loc)
            if target in reg_updates:
                raise RtlSemanticError(f"multiple drivers for register {target!r}", *loc)
            reg_updates[target] = Register(target, reg_widths[target], expr, loc, locs)

    for wname, _, loc in wires:
        if wname not in driven:
            raise RtlSemanticError(f"net {wname!r} has no driver", *loc)
    for p in ports:
        if p.direction == "output" and p.name not in driven:
            raise RtlSemanticError(f"output {p.name!r} has no driver", *decl_locs[p.name])
    for rname in reg_widths:
        if rname not in reg_updates:
            raise RtlSemanticError(f"register {rname!r} has no driver", *decl_locs[rname])

    registers = tuple(reg_updates[rname] for rname, _, _ in regs)
    design = RtlDesign(name, str(source), tuple(ports), tuple(nets), registers,
                       tuple(assigns), filename, canonical=type(source) is PrintedText)
    topo_order(design)  # raises on a combinational cycle; kept for every later use
    return design


# Every live design, keyed by (source, filename); an entry goes when its
# design is freed. Not thread-safe, like the ``Expr`` table.
_DESIGNS: weakref.WeakValueDictionary[tuple[str, str], RtlDesign] = (
    weakref.WeakValueDictionary())


def parse(source: str, filename: str = "<memory>") -> RtlDesign:
    """Parse and elaborate RTL-lite source into an immutable design.

    Designs are hash-consed like ``Expr`` nodes: while the design of
    ``(source, filename)`` lives, parsing that text again returns it. Printer
    output goes straight to elaboration with the draft it carries; any other
    text is tokenized first.

    Raises RtlSyntaxError on malformed input and RtlSemanticError on
    undeclared names, duplicate drivers, width mismatches, out-of-range
    widths, or combinational cycles.
    """
    design = _DESIGNS.get((source, filename))
    if design is None:
        draft = (source.draft if type(source) is PrintedText
                 else _Parser(_tokenize(source)).parse_module())
        design = _elaborate(draft, source, filename)
        _DESIGNS[design.source, filename] = design
    return design


def topo_order(design: RtlDesign) -> tuple[Assign, ...]:
    """Assigns ordered so every net is computed before it is read; computed
    once per design, by elaboration for a parsed one, and kept on it.

    Register outputs and input ports are sources and never create edges.
    A depth-first walk with an explicit path: each assign follows the nets
    it reads, in the order its expression reads them.
    """
    if design._order is not None:
        return design._order
    by_target = {a.target: a for a in design.assigns}
    order: list[Assign] = []
    ordered: dict[str, bool] = {}  # False while a net is on the walk's path

    def reads(target: str):
        for node in by_target[target].expr.walk():
            if node.kind == "var" and node.name in by_target:
                yield node.name

    for root in design.assigns:
        if root.target in ordered:
            continue
        ordered[root.target] = False
        path = [(root.target, reads(root.target))]
        while path:
            target, pending = path[-1]
            for read in pending:
                if ordered.get(read) is False:
                    names = [name for name, _ in path]
                    cycle = names[names.index(read):] + [read]
                    raise RtlSemanticError("combinational cycle through " + " -> ".join(cycle),
                                           *by_target[read].loc)
                if read not in ordered:
                    ordered[read] = False
                    path.append((read, reads(read)))
                    break
            else:
                path.pop()
                ordered[target] = True
                order.append(by_target[target])
    object.__setattr__(design, "_order", tuple(order))
    return design._order
