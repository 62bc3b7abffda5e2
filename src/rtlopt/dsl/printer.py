"""Canonical pretty-printer for RTL-lite designs.

One statement per line, two-space indent, fully parenthesized binary
expressions. ``parse(print_design(parse(s)))`` is structurally identical to
``parse(s)``, which makes printed text a stable content-address key.

The printer writes each line left to right, so it knows the position of
every token it writes: ``print_design`` returns ``PrintedText``, the text
carrying the located draft that the parser's syntax step would build from
it, and ``parse`` elaborates that draft instead of tokenizing the text.
"""

from __future__ import annotations

from .ast import OP_SYMBOL, BINARY_OPS, Expr, RtlDesign


class PrintedText(str):
    """Printer output, carrying ``draft``: the located draft that the syntax
    step would build from this text. It refers to neither the text nor a
    design, so no cycle keeps a design from being freed by refcount."""


def _item(node: Expr, loc: tuple[int, int]) -> tuple:
    """The postfix item the syntax step makes of ``node`` at ``loc``."""
    k = node.kind
    if k == "var":
        return k, loc, node.name, None
    if k == "const":
        return k, loc, node.width, node.value
    if k == "slice":
        return k, loc, node.msb, node.lsb
    return k, loc, node.amount, None


def _write(expr: Expr, line: int, col: int, postfix: list) -> str:
    """``expr``'s text written from ``(line, col)``, appending the postfix
    item of each node occurrence to ``postfix``, located at its operator
    (``?`` for a mux, ``[`` for a slice), name or constant. The stack holds
    nodes and text still to write: a ``(node, offset, text)`` text holds the
    token of a node whose operands follow, and None ends such a node."""
    pieces: list[str] = []
    marks: list[tuple] = []  # items of the nodes begun, innermost last
    stack: list = [expr]
    while stack:
        item = stack.pop()
        if item is None:
            postfix.append(marks.pop())
            continue
        if type(item) is tuple:
            node, offset, item = item
            marks.append(_item(node, (line, col + offset)))
        elif type(item) is not str:
            k, args = item.kind, item.args
            if not args:
                postfix.append(_item(item, (line, col)))
                item = item.name if k == "var" else f"{item.width}'d{item.value}"
            else:
                if k == "mux":
                    parts = ("(", args[0], (item, 1, " ? "), args[1], " : ", args[2], ")")
                elif k == "not":
                    parts = ((item, 0, "~"), args[0])
                elif k == "slice":
                    bounds = (item, 0, f"[{item.msb}:{item.lsb}]")
                    parts = ((args[0], bounds) if args[0].kind in ("var", "slice")
                             else ("(", args[0], ")", bounds))
                elif k in BINARY_OPS:
                    parts = ("(", args[0], (item, 1, f" {OP_SYMBOL[k]} "), args[1], ")")
                else:  # shl, shr
                    parts = ("(", args[0], (item, 1, f" {OP_SYMBOL[k]} {item.amount})"))
                stack.append(None)
                stack += reversed(parts)
                continue
        pieces.append(item)
        col += len(item)
    return "".join(pieces)


def print_expr(expr: Expr) -> str:
    return _write(expr, 0, 1, [])


def _decl_width(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def print_design(design: RtlDesign) -> PrintedText:
    """The canonical text of ``design``, carrying its located draft."""
    header = f"module {design.name}("
    ports = []
    for p in design.ports:
        if ports:
            header += ", "
        header += f"{p.direction} {_decl_width(p.width)}"
        ports.append((p, (1, len(header) + 1)))
        header += p.name
    lines = [header + ");"]
    wires, regs = [], []
    for decls, keyword, items in ((wires, "wire", design.nets), (regs, "reg", design.registers)):
        for item in items:
            text = f"  {keyword} {_decl_width(item.width)}"
            decls.append((item.name, item.width, (len(lines) + 1, len(text) + 1)))
            lines.append(f"{text}{item.name};")
    statements = []
    for a in design.assigns:
        line, postfix = len(lines) + 1, []
        text = _write(a.expr, line, len(a.target) + 13, postfix)
        statements.append(("assign", a.target, postfix, (line, 3)))
        lines.append(f"  assign {a.target} = {text};")
    if design.registers:
        lines.append("  always_ff begin")
        for r in design.registers:
            line, postfix = len(lines) + 1, []
            text = _write(r.next, line, len(r.name) + 9, postfix)
            statements.append(("regupdate", r.name, postfix, (line, 5)))
            lines.append(f"    {r.name} <= {text};")
        lines.append("  end")
    lines.append("endmodule")
    printed = PrintedText("\n".join(lines) + "\n")
    printed.draft = (design.name, ports, wires, regs, statements)
    return printed
