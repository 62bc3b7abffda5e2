"""Core data model for the RTL-lite subset.

A design is a flat module: typed ports, wire/reg declarations, continuous
assigns, and one implicit-clock block of nonblocking register updates.
Everything is immutable after elaboration, so a design can be shared
without copying.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field

MAX_WIDTH = 64

# Expression node kinds.
BINARY_OPS = frozenset({"and", "or", "xor", "add", "sub", "eq", "lt"})

# Operators that are associative and commutative; chains of these may be
# reassociated by the rewriter.
ASSOCIATIVE_OPS = frozenset({"and", "or", "xor", "add"})

OP_SYMBOL = {
    "and": "&",
    "or": "|",
    "xor": "^",
    "add": "+",
    "sub": "-",
    "eq": "==",
    "lt": "<",
    "shl": "<<",
    "shr": ">>",
}


class RtlError(Exception):
    """Base for all RTL-lite front-end errors; carries a source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})" if line else message)
        self.message = message
        self.line = line
        self.col = col


class RtlSyntaxError(RtlError):
    pass


class RtlSemanticError(RtlError):
    pass


# Every live node, keyed by its fields in slot order (``args`` compares its
# nodes by identity); an entry goes when its node is freed.
_INTERNED: weakref.WeakValueDictionary[tuple, Expr] = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False, init=False)
class Expr:
    """One node of an elaborated expression tree.

    ``width`` is the result width in bits; arithmetic is unsigned modulo
    2**width and binary operands always have equal widths (no implicit
    extension). Nodes are hash-consed (Filliâtre & Conchon, ML Workshop
    2006): building a node equal to a live one returns that object, so
    equality and hashing are identity. A node is shared by every statement
    containing it, so source locations live in statements' ``locs``. Not
    thread-safe to build; if threads come back, a lock comes with them.
    """

    __slots__ = ("kind", "width", "args", "name", "value", "amount", "msb", "lsb",
                 "__weakref__")
    kind: str
    width: int
    args: tuple["Expr", ...]
    name: str | None       # var
    value: int | None      # const
    amount: int | None     # shl / shr
    msb: int | None        # slice
    lsb: int | None        # slice

    def __new__(cls, kind, width, args=(), name=None, value=None, amount=None, msb=None, lsb=None):
        key = (kind, width, args, name, value, amount, msb, lsb)
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for slot, field_value in zip(cls.__slots__, key):
                object.__setattr__(node, slot, field_value)
            _INTERNED[key] = node
        return node

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def walk(self):
        """Every node, parents before children and arguments in order.

        Iterative, so a deep chain costs one step per node rather than one
        per node and nesting level."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.args))

    def fold(self, visit):
        """``visit(node, values)`` once per node occurrence, children first and
        arguments left to right, ``values`` being a fresh list of the results
        for ``node.args``; returns the root's. Iterative and unmemoized, so the
        visiting order is a recursive fold's."""
        order, stack = [], [self]
        while stack:  # parents first, last argument first: post-order reversed
            node = stack.pop()
            order.append(node)
            stack.extend(node.args)
        values: list = []
        for node in reversed(order):
            if node.args:
                start = len(values) - len(node.args)
                results = values[start:]
                del values[start:]
                values.append(visit(node, results))
            else:
                values.append(visit(node, []))
        return values[0]


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "input" | "output"
    width: int


@dataclass(frozen=True)
class Net:
    name: str
    width: int


# ``loc`` is a statement's first token; ``locs`` (ignored by equality) holds
# each node occurrence's (line, col) in ``Expr.fold`` order, () if unparsed.
@dataclass(frozen=True)
class Register:
    name: str
    width: int
    next: Expr
    loc: tuple[int, int] = (0, 0)
    locs: tuple[tuple[int, int], ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr
    loc: tuple[int, int] = (0, 0)
    locs: tuple[tuple[int, int], ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class RtlDesign:
    """An elaborated RTL-lite module.

    Invariants (enforced by the elaborator): every referenced identifier is
    declared; each net and register has exactly one driver; the assign graph
    is acyclic; all widths lie in [1, 64].
    """

    name: str
    source: str
    ports: tuple[Port, ...]
    nets: tuple[Net, ...]
    registers: tuple[Register, ...]
    assigns: tuple[Assign, ...]
    filename: str = "<memory>"
    canonical: bool = field(default=False, compare=False)  # ``source`` is printer output

    # Derived lookups, built once: widths in __post_init__, the order by topo_order.
    _widths: dict = field(default_factory=dict, repr=False, compare=False)
    _order: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = {}
        for p in self.ports:
            widths[p.name] = p.width
        for n in self.nets:
            widths[n.name] = n.width
        for r in self.registers:
            widths[r.name] = r.width
        object.__setattr__(self, "_widths", widths)

    def width_of(self, name: str) -> int:
        return self._widths[name]

    @property
    def input_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction == "input")

    @property
    def output_ports(self) -> tuple[Port, ...]:
        return tuple(p for p in self.ports if p.direction == "output")

    def all_exprs(self):
        """Every top-level expression with its driving statement target."""
        for a in self.assigns:
            yield a.target, a.expr
        for r in self.registers:
            yield r.name, r.next

    def port_signature(self):
        return tuple((p.name, p.direction, p.width) for p in self.ports)


def reference_counts(design: RtlDesign) -> dict[str, int]:
    """Structural fanout: number of var references to each identifier."""
    return Counter(node.name for _, expr in design.all_exprs() for node in expr.walk()
                   if node.kind == "var")
