"""Hash-consed normal forms of register-free designs.

A :class:`NormalForms` table interns every normalized node as a tuple
``(kind, width, params..., child ids)`` and numbers it, so two expressions
have equal forms exactly when their ids are equal. Each rule below
preserves the value of every expression under every input, so equal
output forms prove two designs equivalent; unequal forms prove nothing.

* Wires are inlined: a net's form stands in for every read of it.
* ``and``/``or``/``xor``/``add`` chains of one width are flattened into one
  node, their constants combined (``add`` modulo 2**width), identity
  operands dropped and absorbing constants collapsed; ``and``/``or`` drop
  duplicate operands. Operands are sorted by id.
* ``eq`` operands are sorted; ``sub`` and ``lt`` keep their order.
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


class NormalForms:
    """An intern table of normalized nodes; ids are only comparable within
    one table."""

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []

    def _intern(self, key: tuple) -> int:
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return node

    def _const(self, width: int, value: int) -> int:
        return self._intern(("const", width, value))

    def outputs(self, design: RtlDesign) -> tuple[int, ...]:
        """The form of each output port, in port order. Register outputs
        are not modelled: call this on register-free designs only."""
        assert not design.registers, "normal forms cover register-free designs"
        nets: dict[str, int] = {}

        def visit(node: Expr, args: list[int]) -> int:
            if node.kind == "var":
                form = nets.get(node.name)
                return self._intern(("var", node.width, node.name)) if form is None else form
            if node.kind == "const":
                return self._const(node.width, node.value)
            return self._node(node, args)

        for assign in topo_order(design):
            nets[assign.target] = assign.expr.fold(visit)
        return tuple(nets[p.name] for p in design.output_ports)

    def _node(self, node: Expr, args: list[int]) -> int:
        kind, width = node.kind, node.width
        if kind in _CHAINS:
            return self._chain(kind, width, args)
        keys = [self._keys[a] for a in args]
        if kind == "mux" and keys[0][0] == "const":
            return args[1] if keys[0][2] else args[2]
        if all(k[0] == "const" for k in keys):
            return self._const(width, eval_node(node, [k[2] for k in keys]))
        if kind == "eq":
            args.sort()
        return self._intern((kind, width, node.amount, node.msb, node.lsb, *args))

    def _chain(self, kind: str, width: int, args: list[int]) -> int:
        mask = (1 << width) - 1
        identity = mask if kind == "and" else 0
        constant, operands = identity, []
        for arg in args:
            key = self._keys[arg]
            for operand in key[2:] if key[:2] == (kind, width) else (arg,):
                k = self._keys[operand]
                if k[0] == "const":
                    constant = _CHAINS[kind](constant, k[2]) & mask
                else:
                    operands.append(operand)
        if (kind, constant) in (("and", 0), ("or", mask)):  # absorbing
            return self._const(width, constant)
        if kind in ("and", "or"):
            operands = list(set(operands))
        if constant != identity:
            operands.append(self._const(width, constant))
        if len(operands) <= 1:
            return operands[0] if operands else self._const(width, constant)
        return self._intern((kind, width, *sorted(operands)))
