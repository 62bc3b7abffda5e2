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
* Every other node is reduced by :func:`simplify`, the folding rules that
  ``constant_fold`` applies too: a mux with a constant select is its
  chosen branch, constant operands evaluate through :func:`eval_node`, and
  ``x - 0`` is ``x``. Chains and ``simplify`` share one definition of the
  identity and absorbing constants.

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


def _identity(kind: str, width: int) -> int:
    """The constant a chain of ``kind`` ignores: all ones for ``and``, else 0."""
    return (1 << width) - 1 if kind == "and" else 0


def _absorbing(kind: str, width: int) -> int | None:
    """The constant that is a chain's result: 0 for ``and``, all ones for ``or``."""
    return {"and": 0, "or": (1 << width) - 1}.get(kind)


def simplify(node: Expr, args) -> Expr | None:
    """What ``node`` applied to ``args`` reduces to by the first folding rule
    that matches, or None. ``node`` gives the kind, width and parameters;
    ``args`` are its operands, or their forms. Each rule keeps the value
    under every input:

    * a mux with a constant select is its chosen branch;
    * a node whose operands are all constants is its value;
    * in an ``and``/``or``/``xor``/``add``, an identity constant operand
      leaves the other operand, and an absorbing one is the result;
    * ``x - 0`` is ``x`` (``0 - x`` is not).
    """
    kind, width = node.kind, node.width
    if kind == "mux" and args[0].kind == "const":
        return args[1] if args[0].value else args[2]
    if args and all(a.kind == "const" for a in args):
        return Expr("const", width, value=eval_node(node, [a.value for a in args]))
    if kind in _CHAINS:
        for x, c in (args, reversed(args)):
            if c.kind == "const":
                if c.value == _identity(kind, width):
                    return x
                if c.value == _absorbing(kind, width):
                    return c
    elif kind == "sub" and args[1].kind == "const" and args[1].value == 0:
        return args[0]
    return None


def _close(value) -> Expr:
    """The form of a fold value; a chain's is built here."""
    if type(value) is not _Chain:
        return value
    kind, width = value.kind, value.width
    mask = (1 << width) - 1
    identity = _identity(kind, width)
    constant, operands = identity, []
    for operand in value:
        if operand.kind == "const":
            constant = _CHAINS[kind](constant, operand.value) & mask
        else:
            operands.append(operand)
    if constant == _absorbing(kind, width):
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
        folded = simplify(node, forms)
        if folded is not None:
            return folded
        if kind == "eq":
            forms.sort(key=id)
        return Expr(kind, node.width, tuple(forms), amount=node.amount, msb=node.msb,
                    lsb=node.lsb)

    for assign in topo_order(design):
        nets[assign.target] = _close(assign.expr.fold(visit))
    return tuple(nets[p.name] for p in design.output_ports)
