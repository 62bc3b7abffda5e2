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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "reg",
    "assign", "always_ff", "begin", "end",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<sized>(\d+)'([bdh])([0-9a-fA-F_]+))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op><<|>>|==|<=|[()\[\];,:?=~&|^+\-<])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | "sized" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise RtlSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "sized":
                tokens.append(Token("sized", text, line, col))
            elif kind == "ident":
                tokens.append(Token("ident", text, line, col))
            elif kind == "int":
                tokens.append(Token("int", text, line, col))
            else:
                tokens.append(Token("op", text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass
class _RawStmt:
    kind: str          # "assign" | "regupdate"
    target: str
    expr: "._RawExpr"
    line: int
    col: int


@dataclass
class _RawExpr:
    kind: str
    args: tuple = ()
    name: str | None = None
    value: int | None = None
    width: int | None = None   # sized constants only
    amount: int | None = None
    msb: int | None = None
    lsb: int | None = None
    loc: tuple[int, int] = (0, 0)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise RtlSyntaxError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                                 tok.line, tok.col)
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # --- declarations -----------------------------------------------------

    def parse_module(self):
        self.expect("ident", "module")
        name = self.expect("ident").text
        if name in KEYWORDS:
            tok = self.tokens[self.i - 1]
            raise RtlSyntaxError(f"keyword {name!r} cannot name a module", tok.line, tok.col)
        self.expect("op", "(")
        ports = [self.parse_port()]
        while self.accept("op", ","):
            ports.append(self.parse_port())
        self.expect("op", ")")
        self.expect("op", ";")

        wires, regs, stmts = [], [], []
        while not self.accept("ident", "endmodule"):
            tok = self.peek()
            if tok.kind != "ident":
                raise RtlSyntaxError(f"expected statement, found {tok.text!r}", tok.line, tok.col)
            if tok.text == "wire":
                wires.append(self.parse_decl("wire"))
            elif tok.text == "reg":
                regs.append(self.parse_decl("reg"))
            elif tok.text == "assign":
                stmts.append(self.parse_assign())
            elif tok.text == "always_ff":
                stmts.extend(self.parse_always())
            else:
                raise RtlSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col)
        self.expect("eof")
        return name, ports, wires, regs, stmts

    def parse_width(self) -> int:
        """Optional `[msb:0]` declaration; returns width in bits."""
        if not self.accept("op", "["):
            return 1
        msb_tok = self.expect("int")
        self.expect("op", ":")
        lsb_tok = self.expect("int")
        self.expect("op", "]")
        if int(lsb_tok.text) != 0:
            raise RtlSyntaxError("declarations must use [msb:0] ranges",
                                 lsb_tok.line, lsb_tok.col)
        return int(msb_tok.text) + 1

    def parse_port(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("input", "output"):
            direction = self.next().text
        else:
            raise RtlSyntaxError(f"expected port direction, found {tok.text!r}",
                                 tok.line, tok.col)
        width = self.parse_width()
        name_tok = self.expect("ident")
        return Port(name_tok.text, direction, width), (name_tok.line, name_tok.col)

    def parse_decl(self, keyword: str):
        self.expect("ident", keyword)
        width = self.parse_width()
        name_tok = self.expect("ident")
        self.expect("op", ";")
        return name_tok.text, width, (name_tok.line, name_tok.col)

    def parse_assign(self) -> _RawStmt:
        kw = self.expect("ident", "assign")
        target = self.expect("ident").text
        self.expect("op", "=")
        expr = self.parse_expr()
        self.expect("op", ";")
        return _RawStmt("assign", target, expr, kw.line, kw.col)

    def parse_always(self) -> list[_RawStmt]:
        self.expect("ident", "always_ff")
        self.expect("ident", "begin")
        updates = []
        while not self.accept("ident", "end"):
            target_tok = self.expect("ident")
            self.expect("op", "<=")
            expr = self.parse_expr()
            self.expect("op", ";")
            updates.append(_RawStmt("regupdate", target_tok.text, expr,
                                    target_tok.line, target_tok.col))
        return updates

    # --- expressions (precedence climbing) --------------------------------

    def parse_expr(self) -> _RawExpr:
        return self.parse_ternary()

    def parse_ternary(self) -> _RawExpr:
        cond = self.parse_binary(0)
        q = self.accept("op", "?")
        if q is None:
            return cond
        a = self.parse_ternary()
        self.expect("op", ":")
        b = self.parse_ternary()
        return _RawExpr("mux", args=(cond, a, b), loc=(q.line, q.col))

    _LEVELS = [
        {"|": "or"},
        {"^": "xor"},
        {"&": "and"},
        {"==": "eq"},
        {"<": "lt"},
    ]

    def parse_binary(self, level: int) -> _RawExpr:
        if level >= len(self._LEVELS):
            return self.parse_shift()
        ops = self._LEVELS[level]
        left = self.parse_binary(level + 1)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ops:
                self.next()
                right = self.parse_binary(level + 1)
                left = _RawExpr(ops[tok.text], args=(left, right), loc=(tok.line, tok.col))
            else:
                return left

    def parse_shift(self) -> _RawExpr:
        left = self.parse_additive()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("<<", ">>"):
                self.next()
                amt_tok = self.expect("int")
                kind = "shl" if tok.text == "<<" else "shr"
                left = _RawExpr(kind, args=(left,), amount=int(amt_tok.text),
                                loc=(tok.line, tok.col))
            else:
                return left

    def parse_additive(self) -> _RawExpr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.next()
                right = self.parse_unary()
                kind = "add" if tok.text == "+" else "sub"
                left = _RawExpr(kind, args=(left, right), loc=(tok.line, tok.col))
            else:
                return left

    def parse_unary(self) -> _RawExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "~":
            self.next()
            arg = self.parse_unary()
            return _RawExpr("not", args=(arg,), loc=(tok.line, tok.col))
        return self.parse_postfix()

    def parse_postfix(self) -> _RawExpr:
        expr = self.parse_primary()
        while True:
            br = self.accept("op", "[")
            if br is None:
                return expr
            msb = int(self.expect("int").text)
            if self.accept("op", ":"):
                lsb = int(self.expect("int").text)
            else:
                lsb = msb
            self.expect("op", "]")
            expr = _RawExpr("slice", args=(expr,), msb=msb, lsb=lsb, loc=(br.line, br.col))

    def parse_primary(self) -> _RawExpr:
        tok = self.peek()
        if tok.kind == "sized":
            self.next()
            width_str, base, digits = re.match(r"(\d+)'([bdh])(.+)", tok.text).groups()
            width = int(width_str)
            value = int(digits.replace("_", ""), {"b": 2, "d": 10, "h": 16}[base])
            if width < 1 or width > MAX_WIDTH:
                raise RtlSyntaxError(f"constant width {width} outside [1, {MAX_WIDTH}]",
                                     tok.line, tok.col)
            if value >= (1 << width):
                raise RtlSyntaxError(f"constant value {value} does not fit in {width} bits",
                                     tok.line, tok.col)
            return _RawExpr("const", value=value, width=width, loc=(tok.line, tok.col))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return _RawExpr("var", name=tok.text, loc=(tok.line, tok.col))
        if tok.kind == "op" and tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        raise RtlSyntaxError(f"expected expression, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)


# --- elaboration ----------------------------------------------------------


def _elaborate_expr(raw: _RawExpr, widths: dict[str, int]) -> Expr:
    line, col = raw.loc
    if raw.kind == "const":
        return Expr("const", raw.width, value=raw.value, loc=raw.loc)
    if raw.kind == "var":
        if raw.name not in widths:
            raise RtlSemanticError(f"undeclared identifier {raw.name!r}", line, col)
        return Expr("var", widths[raw.name], name=raw.name, loc=raw.loc)
    if raw.kind == "not":
        arg = _elaborate_expr(raw.args[0], widths)
        return Expr("not", arg.width, args=(arg,), loc=raw.loc)
    if raw.kind in ("shl", "shr"):
        arg = _elaborate_expr(raw.args[0], widths)
        if raw.amount < 0 or raw.amount >= arg.width:
            raise RtlSemanticError(f"shift amount {raw.amount} outside operand width {arg.width}",
                                   line, col)
        return Expr(raw.kind, arg.width, args=(arg,), amount=raw.amount, loc=raw.loc)
    if raw.kind == "slice":
        arg = _elaborate_expr(raw.args[0], widths)
        if not (0 <= raw.lsb <= raw.msb < arg.width):
            raise RtlSemanticError(
                f"slice [{raw.msb}:{raw.lsb}] outside operand width {arg.width}", line, col)
        return Expr("slice", raw.msb - raw.lsb + 1, args=(arg,),
                    msb=raw.msb, lsb=raw.lsb, loc=raw.loc)
    if raw.kind == "mux":
        cond, a, b = (_elaborate_expr(x, widths) for x in raw.args)
        if cond.width != 1:
            raise RtlSemanticError(f"mux condition must be 1 bit, got {cond.width}", line, col)
        if a.width != b.width:
            raise RtlSemanticError(
                f"mux arms have mismatched widths {a.width} and {b.width}", line, col)
        return Expr("mux", a.width, args=(cond, a, b), loc=raw.loc)
    if raw.kind in BINARY_OPS:
        a = _elaborate_expr(raw.args[0], widths)
        b = _elaborate_expr(raw.args[1], widths)
        if a.width != b.width:
            raise RtlSemanticError(
                f"operands of {raw.kind} have mismatched widths {a.width} and {b.width}",
                line, col)
        result_width = 1 if raw.kind in ("eq", "lt") else a.width
        return Expr(raw.kind, result_width, args=(a, b), loc=raw.loc)
    raise AssertionError(f"unhandled raw kind {raw.kind}")


def parse(source: str, filename: str = "<memory>") -> RtlDesign:
    """Parse and elaborate RTL-lite source into an immutable design.

    Raises RtlSyntaxError on malformed input and RtlSemanticError on
    undeclared names, duplicate drivers, width mismatches, out-of-range
    widths, or combinational cycles.
    """
    tokens = _tokenize(source)
    name, port_decls, wires, regs, stmts = _Parser(tokens).parse_module()

    widths: dict[str, int] = {}
    locs: dict[str, tuple[int, int]] = {}

    def declare(ident: str, width: int, loc):
        line, col = loc
        if ident in widths:
            raise RtlSemanticError(f"duplicate declaration of {ident!r}", line, col)
        if width < 1 or width > MAX_WIDTH:
            raise RtlSemanticError(f"width {width} of {ident!r} outside [1, {MAX_WIDTH}]",
                                   line, col)
        widths[ident] = width
        locs[ident] = loc

    ports = []
    for port, loc in port_decls:
        declare(port.name, port.width, loc)
        ports.append(port)
    nets = []
    for wname, wwidth, loc in wires:
        declare(wname, wwidth, loc)
        nets.append(Net(wname, wwidth))
    reg_widths = {}
    for rname, rwidth, loc in regs:
        declare(rname, rwidth, loc)
        reg_widths[rname] = rwidth

    port_dirs = {p.name: p.direction for p in ports}

    assigns: list[Assign] = []
    reg_updates: dict[str, Register] = {}
    driven: set[str] = set()
    for stmt in stmts:
        target = stmt.target
        if target not in widths:
            raise RtlSemanticError(f"undeclared target {target!r}", stmt.line, stmt.col)
        expr = _elaborate_expr(stmt.expr, widths)
        if expr.width != widths[target]:
            raise RtlSemanticError(
                f"cannot drive {widths[target]}-bit {target!r} "
                f"with {expr.width}-bit expression", stmt.line, stmt.col)
        if stmt.kind == "assign":
            if target in reg_widths:
                raise RtlSemanticError(f"register {target!r} driven by assign", stmt.line, stmt.col)
            if port_dirs.get(target) == "input":
                raise RtlSemanticError(f"input port {target!r} cannot be driven", stmt.line, stmt.col)
            if target in driven:
                raise RtlSemanticError(f"multiple drivers for {target!r}", stmt.line, stmt.col)
            driven.add(target)
            assigns.append(Assign(target, expr, (stmt.line, stmt.col)))
        else:
            if target not in reg_widths:
                raise RtlSemanticError(f"{target!r} is not a reg", stmt.line, stmt.col)
            if target in reg_updates:
                raise RtlSemanticError(f"multiple drivers for register {target!r}",
                                       stmt.line, stmt.col)
            reg_updates[target] = Register(target, reg_widths[target], expr,
                                           (stmt.line, stmt.col))

    for wname, _, loc in wires:
        if wname not in driven:
            raise RtlSemanticError(f"net {wname!r} has no driver", *loc)
    for p in ports:
        if p.direction == "output" and p.name not in driven:
            raise RtlSemanticError(f"output {p.name!r} has no driver", *locs[p.name])
    for rname in reg_widths:
        if rname not in reg_updates:
            raise RtlSemanticError(f"register {rname!r} has no driver", *locs[rname])

    registers = tuple(reg_updates[rname] for rname, _, _ in regs)
    design = RtlDesign(name, source, tuple(ports), tuple(nets), registers,
                       tuple(assigns), filename=filename)
    topo_order(design)  # raises on a combinational cycle
    return design


def topo_order(design: RtlDesign) -> list[Assign]:
    """Assigns ordered so every net is computed before it is read.

    Register outputs and input ports are sources and never create edges.
    """
    by_target = {a.target: a for a in design.assigns}
    reg_names = design.register_names()
    order: list[Assign] = []
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(target: str, chain: list[str]):
        if state.get(target) == 1:
            return
        if state.get(target) == 0:
            cycle = chain[chain.index(target):] + [target]
            raise RtlSemanticError(
                "combinational cycle through " + " -> ".join(cycle),
                *by_target[target].loc)
        state[target] = 0
        assign = by_target[target]
        for node in assign.expr.walk():
            if node.kind == "var" and node.name in by_target and node.name not in reg_names:
                visit(node.name, chain + [target])
        state[target] = 1
        order.append(assign)

    for a in design.assigns:
        visit(a.target, [])
    return order
