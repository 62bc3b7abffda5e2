"""Rule-based, equivalence-preserving RTL transformations.

A strategy that acts at one site takes the first it finds, looking first in
the statements of the region that critical-path analysis diagnosed and then
in the rest, each group in design order. The design-wide strategies (common
subexpressions, replication, register duplication, constant folding) take
no region, and constant folding applies the normal form's rules
(:func:`~rtlopt.dsl.simplify`).

Each strategy edits the design AST and the result is printed and parsed
back. The printed text carries its located draft, so parsing it skips the
tokenizer but still runs every elaboration check, and a candidate's
``source`` is its canonical text. Subexpressions are found and replaced by
identity, which is value equality for hash-consed ``Expr``s. The
transformations are intended to be sequentially equivalent to their
parent; the evaluation backend still verifies every candidate (the test
suite proves the catalog against the exhaustive equivalence oracle).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from functools import reduce
from operator import is_not

from .dsl import (
    ASSOCIATIVE_OPS,
    Assign,
    Expr,
    Net,
    Register,
    RtlDesign,
    parse,
    print_design,
    print_expr,
    reference_counts,
    simplify,
)

MIN_REPLICATION_FANOUT = 2


class NotApplicable(Exception):
    """The design lacks the structure this strategy needs."""


def _rebuild(design: RtlDesign, *, nets=None, registers=None, assigns=None) -> RtlDesign:
    draft = RtlDesign(
        name=design.name,
        source="",
        ports=design.ports,
        nets=tuple(nets if nets is not None else design.nets),
        registers=tuple(registers if registers is not None else design.registers),
        assigns=tuple(assigns if assigns is not None else design.assigns),
        filename=design.filename,
    )
    return parse(print_design(draft), filename=design.filename)


def _fresh_name(design: RtlDesign, base: str) -> str:
    taken = set(design._widths)
    for i in range(10_000):
        name = f"{base}_{i}"
        if name not in taken:
            return name
    raise NotApplicable(f"no free name for {base}")


def _statements(design: RtlDesign, region: tuple[int, int] | None):
    """(kind, index, expr) for every statement, those whose first line lies in
    the diagnosed ``region`` first; each group keeps design order."""
    statements = [(("assign", i, a.expr), a.loc[0]) for i, a in enumerate(design.assigns)]
    statements += [(("reg", i, r.next), r.loc[0]) for i, r in enumerate(design.registers)]
    if region is not None:
        statements.sort(key=lambda s: not region[0] <= s[1] <= region[1])
    return [statement for statement, _ in statements]


def _map_statements(design: RtlDesign, fn, statement: tuple[str, int] | None = None):
    """(assigns, registers) lists with ``fn`` applied to the expression of the
    ``(kind, index)`` statement, or of every statement when it is None."""
    def hit(kind: str, index: int) -> bool:
        return statement is None or statement == (kind, index)

    assigns = [replace(a, expr=fn(a.expr)) if hit("assign", i) else a
               for i, a in enumerate(design.assigns)]
    registers = [replace(r, next=fn(r.next)) if hit("reg", i) else r
                 for i, r in enumerate(design.registers)]
    return assigns, registers


def _map_expr(expr: Expr, fn) -> Expr:
    """Bottom-up rebuild; ``fn`` may return a replacement node or None. A
    node is rebuilt only where some argument was replaced."""
    def visit(node: Expr, new_args: list[Expr]) -> Expr:
        if any(map(is_not, new_args, node.args)):
            node = replace(node, args=tuple(new_args))
        replacement = fn(node)
        return node if replacement is None else replacement

    return expr.fold(visit)


def _substitute(old: Expr, new: Expr):
    """An expression map that replaces every occurrence of ``old``."""
    return lambda expr: _map_expr(expr, lambda node: new if node is old else None)


def _replace_in(design: RtlDesign, statement: tuple[str, int],
                old: Expr, new: Expr) -> RtlDesign:
    """Rebuild with ``old`` replaced by ``new`` in one ``(kind, index)`` statement."""
    assigns, registers = _map_statements(design, _substitute(old, new), statement)
    return _rebuild(design, registers=registers, assigns=assigns)


def _hoist(design: RtlDesign, sub: Expr, base: str) -> RtlDesign:
    """Rebuild with every occurrence of ``sub`` read from a new wire driving it."""
    name = _fresh_name(design, base)
    assigns, registers = _map_statements(
        design, _substitute(sub, Expr("var", sub.width, name=name)))
    assigns.append(Assign(name, sub))
    return _rebuild(design, nets=list(design.nets) + [Net(name, sub.width)],
                    registers=registers, assigns=assigns)


# --- individual strategies -------------------------------------------------


def _flatten_chain(expr: Expr, op: str) -> list[Expr]:
    return expr.fold(lambda node, parts: parts[0] + parts[1] if node.kind == op else [node])


def _balanced(items: list, leaf, join):
    """A balanced binary tree over ``items``: ``leaf(item)`` for one item, else
    ``join(left_items, left_tree, right_tree)`` over the two halves."""
    if len(items) == 1:
        return leaf(items[0])
    mid = len(items) // 2
    return join(items[:mid], _balanced(items[:mid], leaf, join),
                _balanced(items[mid:], leaf, join))


def tree_rebalance(design: RtlDesign, region=None) -> RtlDesign:
    """Reassociate the first skewed chain of an associative op."""
    for kind, index, root in _statements(design, region):
        for node in root.walk():
            if node.kind not in ASSOCIATIVE_OPS:
                continue
            operands = _flatten_chain(node, node.kind)
            if len(operands) < 3:
                continue
            balanced = _balanced(operands, lambda operand: operand,
                                 lambda _, left, right: Expr(node.kind, node.width, (left, right)))
            if balanced is not node:
                return _replace_in(design, (kind, index), node, balanced)
    raise NotApplicable("no reassociable operator chain")


def common_subexpression_extraction(design: RtlDesign, region=None) -> RtlDesign:
    """Factor the largest repeated subexpression into a shared wire."""
    counts = Counter(node for _, root in design.all_exprs() for node in root.walk()
                     if node.kind not in ("var", "const"))
    repeated = [node for node, c in counts.items() if c >= 2]
    if not repeated:
        raise NotApplicable("no repeated subexpression")
    sub = max(repeated, key=lambda node: (node.node_count(), print_expr(node)))
    return _hoist(design, sub, "cse")


def condition_precompute(design: RtlDesign, region=None) -> RtlDesign:
    """Hoist a computed mux condition into a named 1-bit wire."""
    for _, _, root in _statements(design, region):
        for node in root.walk():
            if node.kind == "mux" and node.args[0].kind not in ("var", "const"):
                return _hoist(design, node.args[0], "cond")
    raise NotApplicable("no mux with a computed condition")


def _mux_chain(expr: Expr) -> tuple[list[tuple[Expr, Expr]], Expr]:
    arms: list[tuple[Expr, Expr]] = []
    node = expr
    while node.kind == "mux":
        arms.append((node.args[0], node.args[1]))
        node = node.args[2]
    return arms, node


def _one_hot_chain(arms: list[tuple[Expr, Expr]]) -> bool:
    """Conditions of the form (X == const_i) on one selector, distinct consts."""
    selector = None
    seen = set()
    for cond, _ in arms:
        if cond.kind != "eq":
            return False
        a, b = cond.args
        if a.kind == "var" and b.kind == "const":
            sel, const = a.name, b.value
        elif a.kind == "const" and b.kind == "var":
            sel, const = b.name, a.value
        else:
            return False
        if selector is None:
            selector = sel
        if sel != selector or const in seen:
            return False
        seen.add(const)
    return True


def _any_condition(arms: list[tuple[Expr, Expr]]) -> Expr:
    """The arms' conditions or-ed left to right."""
    return reduce(lambda cond, arm: Expr("or", 1, (cond, arm[0])), arms[1:], arms[0][0])


def mux_restructure(design: RtlDesign, region=None) -> RtlDesign:
    """Balance a linear priority mux chain over one-hot equality selects: each
    inner select is the or of its first half's conditions."""
    for kind, index, root in _statements(design, region):
        for node in root.walk():
            if node.kind != "mux":
                continue
            arms, default = _mux_chain(node)
            if len(arms) < 3 or not _one_hot_chain(arms):
                continue
            tree = _balanced(
                arms, lambda arm: Expr("mux", node.width, (*arm, default)),
                lambda left, low, high: Expr("mux", node.width, (_any_condition(left), low, high)))
            if tree is not node:
                return _replace_in(design, (kind, index), node, tree)
    raise NotApplicable("no restructurable mux chain")


def _split_sinks(design: RtlDesign, names, suffix: str, absent: str):
    """(name, copy, assigns, registers): the signal among ``names`` with the
    most sinks (ties to the later name), a fresh ``<name>_<suffix>``, and the
    statements with its references after the first half reading the copy."""
    if not names:
        raise NotApplicable(absent)
    fanout = reference_counts(design)
    candidates = [(fanout[n], n) for n in names if fanout[n] >= MIN_REPLICATION_FANOUT]
    if not candidates:
        raise NotApplicable(absent)
    count, name = max(candidates)
    copy = _fresh_name(design, f"{name}_{suffix}")
    keep, seen = math.ceil(count / 2), 0

    def reroute(node: Expr):
        nonlocal seen
        if node.kind == "var" and node.name == name:
            seen += 1
            if seen > keep:
                return replace(node, name=copy)
        return None

    return (name, copy, *_map_statements(design, lambda expr: _map_expr(expr, reroute)))


def signal_replication(design: RtlDesign, region=None) -> RtlDesign:
    """Duplicate the driver of the highest-fanout wire and split its sinks."""
    name, replica, assigns, registers = _split_sinks(
        design, [n.name for n in design.nets], "rep", "no wire with enough fanout to replicate")
    driver = next(a for a in design.assigns if a.target == name)
    assigns.append(Assign(replica, driver.expr))
    return _rebuild(design, nets=list(design.nets) + [Net(replica, design.width_of(name))],
                    registers=registers, assigns=assigns)


def selective_register_insertion(design: RtlDesign, region=None) -> RtlDesign:
    """Duplicate an existing register and repartition its sinks.

    Latency-preserving by construction: the duplicate loads the same
    next-state value on the same clock; no pipeline stage is added.
    """
    name, duplicate, assigns, registers = _split_sinks(
        design, [r.name for r in design.registers], "dup",
        "no register with enough sinks to duplicate")
    reg = next(r for r in design.registers if r.name == name)
    registers.append(Register(duplicate, reg.width, reg.next))
    return _rebuild(design, registers=registers, assigns=assigns)


def constant_fold(design: RtlDesign, region=None) -> RtlDesign:
    """Fold every node bottom-up by the normal form's rules."""
    assigns, registers = _map_statements(
        design, lambda expr: _map_expr(expr, lambda node: simplify(node, node.args)))
    if assigns == list(design.assigns) and registers == list(design.registers):
        raise NotApplicable("nothing to fold")
    return _rebuild(design, registers=registers, assigns=assigns)


def decomposition(design: RtlDesign, region=None) -> RtlDesign:
    """Split one deep assign into staged intermediate wires (no registers)."""
    for kind, index, root in _statements(design, region):
        if kind != "assign" or root.node_count() < 4:
            continue
        for arg_index, arg in enumerate(root.args):
            if arg.kind in ("var", "const") or not arg.args:
                continue
            name = _fresh_name(design, "dec")
            var = Expr("var", arg.width, name=name)
            new_args = tuple(var if i == arg_index else a for i, a in enumerate(root.args))
            new_root = replace(root, args=new_args)
            assigns = list(design.assigns)
            assigns[index] = replace(assigns[index], expr=new_root)
            assigns.insert(index, Assign(name, arg))
            return _rebuild(design, nets=list(design.nets) + [Net(name, arg.width)],
                            assigns=assigns)
    raise NotApplicable("no decomposable assign")


# Declaration order is the proposer's exploration order.
STRATEGY_FUNCTIONS = {
    "condition-precompute": condition_precompute,
    "signal-replication": signal_replication,
    "selective-register-insertion": selective_register_insertion,
    "tree-rebalance": tree_rebalance,
    "common-subexpression-extraction": common_subexpression_extraction,
    "mux-restructure": mux_restructure,
    "decomposition": decomposition,
    "constant-fold": constant_fold,
}


def apply_strategy(design: RtlDesign, strategy: str,
                   region: tuple[int, int] | None = None) -> RtlDesign:
    """Apply one named strategy, preferring sites inside ``region`` (the
    diagnosed lines); raises NotApplicable when the design lacks the
    structure it needs."""
    try:
        fn = STRATEGY_FUNCTIONS[strategy]
    except KeyError:
        raise NotApplicable(f"unknown strategy {strategy!r}") from None
    return fn(design, region)
