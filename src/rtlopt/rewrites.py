"""Rule-based, equivalence-preserving RTL transformations.

Each strategy edits the design AST and the result is re-printed and
re-parsed, so every candidate goes back through full elaboration checks.
The transformations are intended to be sequentially equivalent to their
parent; the evaluation backend still verifies every candidate (the test
suite proves the catalog against the exhaustive equivalence oracle).
"""

from __future__ import annotations

import math
from dataclasses import replace

from .dsl import (
    ASSOCIATIVE_OPS,
    Assign,
    Expr,
    Net,
    Register,
    RtlDesign,
    eval_expr,
    parse,
    print_design,
    reference_counts,
)

MIN_REPLICATION_FANOUT = 2


class NotApplicable(Exception):
    """The design (or region) lacks the structure this strategy needs."""


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


def _in_region(line: int, region: tuple[int, int] | None) -> bool:
    return region is None or region[0] <= line <= region[1]


def _statements(design: RtlDesign, region: tuple[int, int] | None):
    """(kind, index, target, expr) for statements whose line falls in region."""
    out = []
    for i, a in enumerate(design.assigns):
        if _in_region(a.loc[0], region):
            out.append(("assign", i, a.target, a.expr))
    for i, r in enumerate(design.registers):
        if _in_region(r.loc[0], region):
            out.append(("reg", i, r.name, r.next))
    return out


def _replace_stmt_expr(design: RtlDesign, kind: str, index: int, expr: Expr) -> RtlDesign:
    if kind == "assign":
        assigns = list(design.assigns)
        assigns[index] = replace(assigns[index], expr=expr)
        return _rebuild(design, assigns=assigns)
    registers = list(design.registers)
    registers[index] = replace(registers[index], next=expr)
    return _rebuild(design, registers=registers)


def _map_expr(expr: Expr, fn) -> Expr:
    """Bottom-up rebuild; ``fn`` may return a replacement node or None."""
    new_args = tuple(_map_expr(a, fn) for a in expr.args)
    node = expr if new_args == expr.args else replace(expr, args=new_args)
    replacement = fn(node)
    return node if replacement is None else replacement


def _replace_by_key(expr: Expr, key, substitute: Expr) -> Expr:
    def fn(node: Expr):
        return substitute if node.key() == key else None
    return _map_expr(expr, fn)


# --- individual strategies -------------------------------------------------


def _flatten_chain(expr: Expr, op: str) -> list[Expr]:
    if expr.kind != op:
        return [expr]
    return _flatten_chain(expr.args[0], op) + _flatten_chain(expr.args[1], op)


def _balanced(operands: list[Expr], op: str, width: int, loc) -> Expr:
    if len(operands) == 1:
        return operands[0]
    mid = len(operands) // 2
    left = _balanced(operands[:mid], op, width, loc)
    right = _balanced(operands[mid:], op, width, loc)
    return Expr(op, width, args=(left, right), loc=loc)


def tree_rebalance(design: RtlDesign, region=None) -> RtlDesign:
    """Reassociate the first skewed chain of an associative op found in region."""
    for kind, index, target, root in _statements(design, region):
        for node in root.walk():
            if node.kind not in ASSOCIATIVE_OPS:
                continue
            operands = _flatten_chain(node, node.kind)
            if len(operands) < 3:
                continue
            balanced = _balanced(operands, node.kind, node.width, node.loc)
            if balanced.key() == node.key():
                continue
            new_root = _replace_by_key(root, node.key(), balanced)
            return _replace_stmt_expr(design, kind, index, new_root)
    raise NotApplicable("no reassociable operator chain in region")


def common_subexpression_extraction(design: RtlDesign, region=None) -> RtlDesign:
    """Factor the largest repeated subexpression into a shared wire."""
    counts: dict = {}
    samples: dict = {}
    for _, _, _, root in _statements(design, None):
        for node in root.walk():
            if node.kind in ("var", "const"):
                continue
            k = node.key()
            counts[k] = counts.get(k, 0) + 1
            samples[k] = node
    repeated = [(samples[k].node_count(), str(k), k) for k, c in counts.items() if c >= 2]
    if not repeated:
        raise NotApplicable("no repeated subexpression")
    _, _, key = max(repeated)
    sub = samples[key]
    name = _fresh_name(design, "cse")
    var = Expr("var", sub.width, name=name)
    assigns = [replace(a, expr=_replace_by_key(a.expr, key, var)) for a in design.assigns]
    registers = [replace(r, next=_replace_by_key(r.next, key, var))
                 for r in design.registers]
    assigns.append(Assign(name, sub))
    return _rebuild(design, nets=list(design.nets) + [Net(name, sub.width)],
                    registers=registers, assigns=assigns)


def condition_precompute(design: RtlDesign, region=None) -> RtlDesign:
    """Hoist a computed mux condition into a named 1-bit wire."""
    for kind, index, target, root in _statements(design, region):
        for node in root.walk():
            if node.kind != "mux":
                continue
            cond = node.args[0]
            if cond.kind in ("var", "const"):
                continue
            name = _fresh_name(design, "cond")
            var = Expr("var", 1, name=name)
            key = cond.key()
            assigns = [replace(a, expr=_replace_by_key(a.expr, key, var))
                       for a in design.assigns]
            registers = [replace(r, next=_replace_by_key(r.next, key, var))
                         for r in design.registers]
            assigns.append(Assign(name, cond))
            return _rebuild(design, nets=list(design.nets) + [Net(name, 1)],
                            registers=registers, assigns=assigns)
    raise NotApplicable("no mux with a computed condition in region")


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


def _build_mux_tree(arms: list[tuple[Expr, Expr]], default: Expr, width: int) -> Expr:
    if not arms:
        return default
    if len(arms) == 1:
        cond, value = arms[0]
        return Expr("mux", width, args=(cond, value, default))
    mid = len(arms) // 2
    left, right = arms[:mid], arms[mid:]
    cond = left[0][0]
    for extra, _ in left[1:]:
        cond = Expr("or", 1, args=(cond, extra))
    return Expr("mux", width, args=(
        cond,
        _build_mux_tree(left, default, width),
        _build_mux_tree(right, default, width),
    ))


def mux_restructure(design: RtlDesign, region=None) -> RtlDesign:
    """Balance a linear priority mux chain over one-hot equality selects."""
    for kind, index, target, root in _statements(design, region):
        for node in root.walk():
            if node.kind != "mux":
                continue
            arms, default = _mux_chain(node)
            if len(arms) < 3 or not _one_hot_chain(arms):
                continue
            tree = _build_mux_tree(arms, default, node.width)
            if tree.key() == node.key():
                continue
            new_root = _replace_by_key(root, node.key(), tree)
            return _replace_stmt_expr(design, kind, index, new_root)
    raise NotApplicable("no restructurable mux chain in region")


def _reroute_sinks(design: RtlDesign, name: str, replica: str, keep: int):
    """Rewrite var refs to ``name``: the first ``keep`` stay, the rest move."""
    counter = {"n": 0}

    def fn(node: Expr):
        if node.kind == "var" and node.name == name:
            counter["n"] += 1
            if counter["n"] > keep:
                return replace(node, name=replica)
        return None

    assigns = [replace(a, expr=_map_expr(a.expr, fn)) for a in design.assigns]
    registers = [replace(r, next=_map_expr(r.next, fn)) for r in design.registers]
    return assigns, registers


def signal_replication(design: RtlDesign, region=None) -> RtlDesign:
    """Duplicate the driver of the highest-fanout wire and split its sinks."""
    fanout = reference_counts(design)
    candidates = [
        (fanout.get(n.name, 0), n.name) for n in design.nets
        if fanout.get(n.name, 0) >= MIN_REPLICATION_FANOUT
    ]
    if not candidates:
        raise NotApplicable("no wire with enough fanout to replicate")
    _, name = max(candidates, key=lambda t: (t[0], t[1]))
    driver = next(a for a in design.assigns if a.target == name)
    replica = _fresh_name(design, f"{name}_rep")
    keep = math.ceil(fanout[name] / 2)
    assigns, registers = _reroute_sinks(design, name, replica, keep)
    assigns.append(Assign(replica, driver.expr))
    return _rebuild(design, nets=list(design.nets) + [Net(replica, design.width_of(name))],
                    registers=registers, assigns=assigns)


def selective_register_insertion(design: RtlDesign, region=None) -> RtlDesign:
    """Duplicate an existing register and repartition its sinks.

    Latency-preserving by construction: the duplicate loads the same
    next-state value on the same clock; no pipeline stage is added.
    """
    fanout = reference_counts(design)
    candidates = [
        (fanout.get(r.name, 0), r.name, r) for r in design.registers
        if fanout.get(r.name, 0) >= 2
    ]
    if not candidates:
        raise NotApplicable("no register with enough sinks to duplicate")
    _, name, reg = max(candidates, key=lambda t: (t[0], t[1]))
    duplicate = _fresh_name(design, f"{name}_dup")
    keep = math.ceil(fanout[name] / 2)
    assigns, registers = _reroute_sinks(design, name, duplicate, keep)
    registers.append(Register(duplicate, reg.width, reg.next))
    return _rebuild(design, registers=registers, assigns=assigns)


def _all_ones(width: int) -> int:
    return (1 << width) - 1


def _fold_node(node: Expr) -> Expr | None:
    args = node.args
    if args and all(a.kind == "const" for a in args) and node.kind != "var":
        value = eval_expr(node, {})
        return Expr("const", node.width, value=value, loc=node.loc)
    if node.kind in ("and", "or", "xor", "add", "sub"):
        a, b = args
        for x, y in ((a, b), (b, a)):
            if y.kind != "const":
                continue
            v = y.value
            if node.kind == "and" and v == 0:
                return Expr("const", node.width, value=0, loc=node.loc)
            if node.kind == "and" and v == _all_ones(node.width):
                return x
            if node.kind == "or" and v == 0:
                return x
            if node.kind == "or" and v == _all_ones(node.width):
                return Expr("const", node.width, value=_all_ones(node.width), loc=node.loc)
            if node.kind == "xor" and v == 0:
                return x
            if node.kind == "add" and v == 0:
                return x
            if node.kind == "sub" and v == 0 and y is b:
                return x
    if node.kind == "mux" and args[0].kind == "const":
        return args[1] if args[0].value else args[2]
    return None


def constant_fold(design: RtlDesign, region=None) -> RtlDesign:
    changed = False

    def fold(root: Expr) -> Expr:
        nonlocal changed
        out = _map_expr(root, _fold_node)
        if out.key() != root.key():
            changed = True
        return out

    assigns = [replace(a, expr=fold(a.expr)) for a in design.assigns]
    registers = [replace(r, next=fold(r.next)) for r in design.registers]
    if not changed:
        raise NotApplicable("nothing to fold")
    return _rebuild(design, registers=registers, assigns=assigns)


def decomposition(design: RtlDesign, region=None) -> RtlDesign:
    """Split one deep assign into staged intermediate wires (no registers)."""
    for kind, index, target, root in _statements(design, region):
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
    raise NotApplicable("no decomposable assign in region")


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
    """Apply one named strategy; raises NotApplicable when the structure is absent."""
    try:
        fn = STRATEGY_FUNCTIONS[strategy]
    except KeyError:
        raise NotApplicable(f"unknown strategy {strategy!r}") from None
    return fn(design, region)
