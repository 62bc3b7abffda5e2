"""Hash-consed normal forms of register-free designs.

A normal form is an interned :class:`Expr`, so two expressions have equal
forms exactly when their forms are one object. Each rule below preserves
the value of every expression under every input, so equal output forms
prove two designs equivalent; unequal forms prove nothing.

* Wires are inlined: a net's form stands in for every read of it.
* ``and``/``or``/``xor``/``add`` chains are flattened into one n-ary node,
  their constants combined (``add`` modulo 2**width), identity operands
  dropped and absorbing constants collapsed; ``and``/``or`` drop duplicate
  operands. Operands are sorted by ``id``: stable while the forms live,
  and forms are only compared with each other.
* ``eq`` operands are sorted too; ``sub`` and ``lt`` keep their order.
* Nodes with constant operands only fold through :func:`eval_node`, and a
  mux with a constant select is its chosen branch.

Normal forms in the style of Filliâtre & Conchon, "Type-safe modular
hash-consing" (ML Workshop 2006).
"""

from __future__ import annotations

import operator

from .ast import Expr, RtlDesign
from .parser import topo_order
from .simulate import eval_node

# Chain kinds and how each combines two constants (reduced modulo 2**width).
_CHAINS = {"and": operator.and_, "or": operator.or_, "xor": operator.xor,
           "add": operator.add}


class _Chain(list):
    """Operand forms of a chain still being gathered. ``Expr.fold`` hands each
    value to one parent, so a parent in the same chain extends it in place:
    one step per operand, and one form built where the chain ends."""

    __slots__ = ("kind", "width")


def _close(value) -> Expr:
    """The form of a fold value; a chain's is built here."""
    if type(value) is not _Chain:
        return value
    kind, width = value.kind, value.width
    mask = (1 << width) - 1
    identity = mask if kind == "and" else 0
    constant, operands = identity, []
    for operand in value:
        if operand.kind == "const":
            constant = _CHAINS[kind](constant, operand.value) & mask
        else:
            operands.append(operand)
    if (kind, constant) in (("and", 0), ("or", mask)):  # absorbing
        return Expr("const", width, value=constant)
    if kind in ("and", "or"):
        operands = list(set(operands))
    if constant != identity:
        operands.append(Expr("const", width, value=constant))
    if len(operands) <= 1:
        return operands[0] if operands else Expr("const", width, value=constant)
    return Expr(kind, width, tuple(sorted(operands, key=id)))


def output_forms(design: RtlDesign) -> tuple[Expr, ...]:
    """The form of each output port, in port order. Register outputs are not
    modelled: call this on register-free designs only."""
    assert not design.registers, "normal forms cover register-free designs"
    nets: dict[str, Expr] = {}

    def visit(node: Expr, args: list):
        kind = node.kind
        if kind in ("var", "const"):  # a net's form, else the leaf itself
            return nets.get(node.name, node)
        if kind in _CHAINS:  # every operand has the chain's width
            chain = next((a for a in args if type(a) is _Chain and a.kind == kind), None)
            if chain is None:
                chain = _Chain()
                chain.kind, chain.width = kind, node.width
            for arg in args:
                if arg is not chain:
                    if type(arg) is not _Chain or arg.kind != kind:
                        arg = _close(arg)
                        arg = arg.args if arg.kind == kind else (arg,)
                    chain += arg
            return chain
        forms = [_close(a) for a in args]
        if kind == "mux" and forms[0].kind == "const":
            return forms[1] if forms[0].value else forms[2]
        if all(f.kind == "const" for f in forms):
            return Expr("const", node.width, value=eval_node(node, [f.value for f in forms]))
        if kind == "eq":
            forms.sort(key=id)
        return Expr(kind, node.width, tuple(forms), amount=node.amount, msb=node.msb,
                    lsb=node.lsb)

    for assign in topo_order(design):
        nets[assign.target] = _close(assign.expr.fold(visit))
    return tuple(nets[p.name] for p in design.output_ports)
