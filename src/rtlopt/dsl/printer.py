"""Canonical pretty-printer for RTL-lite designs.

One statement per line, two-space indent, fully parenthesized binary
expressions. ``parse(print_design(parse(s)))`` is structurally identical to
``parse(s)``, which makes printed text a stable content-address key.
"""

from __future__ import annotations

from .ast import OP_SYMBOL, BINARY_OPS, Expr, RtlDesign


def _print_node(expr: Expr, texts: list[str]) -> str:
    k = expr.kind
    if k in BINARY_OPS:
        return f"({texts[0]} {OP_SYMBOL[k]} {texts[1]})"
    if k == "var":
        return expr.name
    if k == "const":
        return f"{expr.width}'d{expr.value}"
    if k == "not":
        return f"~{texts[0]}"
    if k in ("shl", "shr"):
        return f"({texts[0]} {OP_SYMBOL[k]} {expr.amount})"
    if k == "slice":
        inner = texts[0] if expr.args[0].kind in ("var", "slice") else f"({texts[0]})"
        return f"{inner}[{expr.msb}:{expr.lsb}]"
    if k == "mux":
        return f"({texts[0]} ? {texts[1]} : {texts[2]})"
    raise AssertionError(f"unhandled kind {k}")


def print_expr(expr: Expr) -> str:
    return expr.fold(_print_node)


def _decl_width(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def print_design(design: RtlDesign) -> str:
    header_ports = ", ".join(
        f"{p.direction} {_decl_width(p.width)}{p.name}" for p in design.ports
    )
    lines = [f"module {design.name}({header_ports});"]
    for net in design.nets:
        lines.append(f"  wire {_decl_width(net.width)}{net.name};")
    for reg in design.registers:
        lines.append(f"  reg {_decl_width(reg.width)}{reg.name};")
    for assign in design.assigns:
        lines.append(f"  assign {assign.target} = {print_expr(assign.expr)};")
    if design.registers:
        lines.append("  always_ff begin")
        for reg in design.registers:
            lines.append(f"    {reg.name} <= {print_expr(reg.next)};")
        lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
