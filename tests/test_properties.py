"""Property-based checks over randomly generated expressions and groups."""

import itertools
import math
import re
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from corpus import CHAIN_ADDER_8, CHAIN_ADDER_8_REG, REWRITE_CORPUS
from rtlopt.backend import (
    SEC_BOUNDED,
    SEC_EXHAUSTIVE,
    SEC_SYMBOLIC,
    BackendConfig,
    EvalResult,
    GoldenSec,
    PpaMetrics,
    check_equivalence,
    simulate_equivalence,
)
from rtlopt.dsl import (
    OP_SYMBOL,
    CompiledDesign,
    Expr,
    eval_expr,
    parse,
    print_design,
    print_expr,
    simplify,
    simulate,
    uint_dtype,
)
from rtlopt.rewrites import STRATEGY_FUNCTIONS, NotApplicable, apply_strategy
from rtlopt.scoring import CandidateScore, group_advantage
from rtlopt.skills import SkillLibrary, distill, merge
from rtlopt.timing import BottleneckDiagnosis, RtlRegion, TimingPath
from rtlopt.trajectory import CandidateRecord, IterationRecord, canonical_json, design_hash
from sta_reference import assert_matches_reference

_VARS = ("a", "b", "c")
# Both sides of every dtype boundary of the batch engine.
_WIDTHS = (2, 7, 8, 9, 16, 17, 32, 33, 64)


def _corners(width):
    mask = (1 << width) - 1
    return sorted({0, 1, mask, mask >> 1, 1 << (width - 1)})


def _exprs(width, depth):
    """Expressions over ``width``-bit ports; compares and 1-bit slices
    appear as mux selects."""
    consts = st.sampled_from(_corners(width)).map(lambda v: f"{width}'d{v}")
    leaf = st.one_of(st.sampled_from(_VARS), consts)
    if depth == 0:
        return leaf
    sub = _exprs(width, depth - 1)
    binary = st.tuples(st.sampled_from(["&", "|", "^", "+", "-"]), sub, sub).map(
        lambda t: f"({t[1]} {t[0]} {t[2]})")
    unary = sub.map(lambda e: f"(~{e})")
    shift = st.tuples(sub, st.sampled_from(["<<", ">>"]), st.integers(0, width - 1)).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    select = st.one_of(
        st.tuples(sub, st.sampled_from(["==", "<"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.integers(0, width - 1)).map(lambda t: f"{t[0]}[{t[1]}:{t[1]}]"))
    mux = st.tuples(select, sub, sub).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})")
    return st.one_of(leaf, binary, unary, shift, mux)


_designs = st.sampled_from(_WIDTHS).flatmap(
    lambda w: st.tuples(st.just(w), _exprs(w, 3)))


def _design(width, expr_text):
    ports = ", ".join(f"input [{width - 1}:0] {v}" for v in _VARS)
    return parse(f"module gen({ports}, output [{width - 1}:0] y);\n"
                 f"  assign y = {expr_text};\nendmodule\n")


def _corner_traces(width):
    mask = (1 << width) - 1
    return [[{"a": a, "b": b, "c": (a + b) & mask}]
            for a in _corners(width) for b in _corners(width)]


@settings(max_examples=200, deadline=None)
@given(_designs)
def test_print_parse_roundtrip_preserves_semantics(case):
    design = _design(*case)
    reparsed = parse(print_design(design))
    assert print_design(reparsed) == print_design(design)
    for trace in _corner_traces(case[0]):
        assert simulate(design, trace, 1) == simulate(reparsed, trace, 1)


@settings(max_examples=200, deadline=None)
@given(_designs, st.sampled_from([0.5, 3.0]))
def test_sta_matches_the_list_building_reference(case, clock):
    """Synthesis gives the reference analysis's metrics and report, float for
    float, on the design as written and on its canonical text."""
    design = _design(*case)
    for d in (design, parse(print_design(design), "printed.rtl")):
        assert_matches_reference(d, BackendConfig(clock_period=clock))


# The defining token of each node kind other than var and const.
_SYMBOLS = {**OP_SYMBOL, "mux": "?", "slice": "[", "not": "~"}
_TOKEN_AT = re.compile(r"\d+'[bdh][0-9a-fA-F_]+|[A-Za-z_]\w*|<<|>>|==|<=|.")


def _fold_order(expr):
    nodes = []
    expr.fold(lambda node, _: nodes.append(node))
    return nodes


def _assert_locs_at_defining_tokens(design, text):
    """Every statement's loc is at `assign` or at the register it updates,
    and each node occurrence's loc in the statement's ``locs`` is at its
    name, constant or operator symbol."""
    lines = text.split("\n")

    def token_at(loc):
        line, col = loc
        return _TOKEN_AT.match(lines[line - 1], col - 1).group()

    assert all(token_at(a.loc) == "assign" for a in design.assigns)
    assert all(token_at(r.loc) == r.name for r in design.registers)
    statements = [(a.expr, a.locs) for a in design.assigns]
    statements += [(r.next, r.locs) for r in design.registers]
    for expr, locs in statements:
        nodes = _fold_order(expr)
        assert len(nodes) == len(locs)
        for node, loc in zip(nodes, locs):
            token = token_at(loc)
            if node.kind == "var":
                assert token == node.name, (node, token)
            elif node.kind == "const":
                width, _, digits = token.partition("'")
                value = int(digits[1:].replace("_", ""), {"b": 2, "d": 10, "h": 16}[digits[0]])
                assert (int(width), value) == (node.width, node.value), (node, token)
            else:
                assert token == _SYMBOLS[node.kind], (node, token)


_SPACES = st.lists(st.sampled_from([" ", "\t", "\n", "  // note\n", "\r\n ", "\n\n"]),
                   min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(_designs, _SPACES)
def test_locations_point_at_defining_tokens(case, spaces):
    """The generated text with its spaces replaced by tabs, newlines, CRLF
    and comments parses with every loc on its token, and so does its
    canonical print. Equality ignores locs, so only this checks the
    tokenizer's lines and columns."""
    width, expr_text = case
    pieces = expr_text.split(" ")
    spaced = pieces[0] + "".join(spaces[k % len(spaces)] + piece
                                 for k, piece in enumerate(pieces[1:]))
    design = _design(width, spaced)
    _assert_locs_at_defining_tokens(design, design.source)
    printed = print_design(design)
    reparsed = parse(printed)
    assert reparsed == replace(design, source=printed)
    _assert_locs_at_defining_tokens(reparsed, printed)


_HAND_WRITTEN = (
    "// leading comment\r\n"
    "module hand(input [7:0] a,\tinput s, output [3:0] y);\r\n"
    "\r\n"
    "\twire [7:0] t;  // trailing comment\r\n"
    "  reg [7:0] q;\r\n"
    "\tassign t = (a + q) ^\t~a;\r\n"
    "\r\n"
    "  assign y = s ? t[7:4] : (t >> 2)[3:0];\r\n"
    "  always_ff begin\r\n"
    "\t\tq <= t - 8'hf_f;\r\n"
    "  end\r\n"
    "endmodule\r\n"
)


def test_locations_with_comments_tabs_and_crlf():
    design = parse(_HAND_WRITTEN)
    _assert_locs_at_defining_tokens(design, _HAND_WRITTEN)
    # In fold order a statement's root comes last, just after its last argument.
    t, y = design.assigns
    assert (t.loc, t.locs[-1], t.locs[-2]) == ((6, 2), (6, 21), (6, 23))
    assert (y.loc, y.locs[-1], y.locs[-2]) == ((8, 3), (8, 16), (8, 35))
    (q,) = design.registers
    assert (q.loc, q.locs[-1], q.locs[-2]) == ((10, 3), (10, 10), (10, 12))
    assert q.next.args[1].value == 255


_CATALOG_PARENTS = st.one_of(
    st.sampled_from([*REWRITE_CORPUS, CHAIN_ADDER_8, CHAIN_ADDER_8_REG]).map(parse),
    _designs.map(lambda case: _design(*case)))


@settings(max_examples=200, deadline=None)
@given(_CATALOG_PARENTS, st.sampled_from(list(STRATEGY_FUNCTIONS)),
       st.one_of(st.none(), st.integers(1, 8).map(lambda n: (n, n))))
def test_printed_catalog_output_elaborates_as_its_text(parent, strategy, region):
    """Printer output is elaborated from the draft it carries, not from its
    text; over the rewrite catalog that gives the very nodes, statement
    locations and source that parsing the plain text gives. The filenames
    differ, so the design table cannot answer either call."""
    try:
        child = apply_strategy(parent, strategy, region)
    except NotApplicable:
        child = parent
    printed = print_design(child)
    fast = parse(printed, "printed.rtl")
    slow = parse(str(printed), "text.rtl")
    assert (fast.name, fast.ports, fast.nets) == (slow.name, slow.ports, slow.nets)
    for mine, theirs in ((fast.assigns, slow.assigns), (fast.registers, slow.registers)):
        assert [(s, s.loc, s.locs) for s in mine] == [(s, s.loc, s.locs) for s in theirs]
    assert fast.source == slow.source == printed
    _assert_locs_at_defining_tokens(fast, printed)


@settings(max_examples=200, deadline=None)
@given(_designs, st.lists(st.tuples(*[st.integers(0, (1 << 64) - 1)] * len(_VARS)),
                          max_size=8))
def test_batch_engine_matches_interpreter(case, drawn):
    width = case[0]
    design = _design(*case)
    mask = (1 << width) - 1
    traces = _corner_traces(width) + [
        [{v: x & mask for v, x in zip(_VARS, row)}] for row in drawn]
    batch = CompiledDesign(design).run(
        [{v: np.array([t[0][v] for t in traces], dtype=uint_dtype(width))
          for v in _VARS}], 1)
    got = batch[0]["y"]
    assert got.dtype == uint_dtype(width)
    assert [int(x) for x in got] == [simulate(design, t, 1)[0]["y"] for t in traces]


def _rule_operands(width):
    """Inputs ``a``/``b`` (``s`` at one bit), ``a ^ b``, or a constant of
    ``width`` bits, with 0, 1 and all ones among the constants."""
    var = (st.sampled_from(["a", "b"]).map(lambda n: Expr("var", width, name=n))
           if width > 1 else st.just(Expr("var", 1, name="s")))
    const = st.sampled_from(sorted({0, 1, (1 << width) - 1, width - 1})).map(
        lambda v: Expr("const", width, value=v))
    return st.one_of(var, const, st.just(Expr("xor", width, (Expr("var", width, name="a"),
                                                             Expr("var", width, name="b")))))


@st.composite
def _rule_nodes(draw):
    """One node of any operator over drawn operands, at widths 1 to 4."""
    width = draw(st.integers(1, 4))
    x, y = draw(_rule_operands(width)), draw(_rule_operands(width))
    kind = draw(st.sampled_from(["and", "or", "xor", "add", "sub", "eq", "lt", "not",
                                 "shl", "shr", "slice", "mux"]))
    if kind in ("eq", "lt"):
        return Expr(kind, 1, (x, y))
    if kind == "not":
        return Expr(kind, width, (x,))
    if kind in ("shl", "shr"):
        return Expr(kind, width, (x,), amount=draw(st.integers(0, width - 1)))
    if kind == "slice":
        lsb = draw(st.integers(0, width - 1))
        msb = draw(st.integers(lsb, width - 1))
        return Expr(kind, msb - lsb + 1, (x,), msb=msb, lsb=lsb)
    if kind == "mux":
        return Expr(kind, width, (draw(_rule_operands(1)), x, y))
    return Expr(kind, width, (x, y))


@settings(max_examples=300, deadline=None)
@given(_rule_nodes())
def test_every_folding_rule_keeps_the_value(node):
    """Whatever ``simplify`` reduces a node to (the rules both the normal form
    and constant_fold use) has the node's value under every input."""
    folded = simplify(node, node.args)
    if folded is None:
        return
    width = node.args[0].width if node.kind != "mux" else node.args[1].width
    for a, b, s in itertools.product(range(1 << width), range(1 << width), range(2)):
        env = {"a": a, "b": b, "s": s}
        assert eval_expr(folded, env) == eval_expr(node, env), (node, folded, env)


_MUTANTS = {"and": "or", "or": "xor", "xor": "and", "add": "sub", "sub": "add",
            "eq": "lt", "lt": "eq", "shl": "shr", "shr": "shl"}


def _variant(node, how, pick):
    """``node`` with its operands commuted, its chain reassociated
    (``(x o y) o z`` to ``x o (y o z)``) or one mutation; the node itself
    when the change does not apply. Commuting or reassociating ``-`` and
    commuting ``<`` change the value, like a mutation."""
    args = node.args
    if how == "commute" and len(args) == 2:
        return replace(node, args=(args[1], args[0]))
    if how == "reassociate" and len(args) == 2 and args[0].kind == node.kind:
        x, y = args[0].args
        return replace(node, args=(x, replace(args[0], args=(y, args[1]))))
    if how == "mutate":
        if node.kind in _MUTANTS:
            return replace(node, kind=_MUTANTS[node.kind])
        if node.kind == "const":
            return replace(node, value=node.value ^ 1)
        if node.kind == "var":
            return replace(node, name=_VARS[(_VARS.index(node.name) + 1) % len(_VARS)])
        if node.kind == "mux":
            return replace(node, args=(args[0], args[2], args[1]))
        if node.kind == "slice":
            lsb = (node.lsb + pick) % args[0].width
            return replace(node, msb=lsb, lsb=lsb)
    return node


def _rebuild(expr, target, new):
    if expr is target:
        return new
    if not expr.args:
        return expr
    return replace(expr, args=tuple(_rebuild(a, target, new) for a in expr.args))


def _changed(expr, changes):
    """``expr`` after each change that applies somewhere, at most one of
    them a mutation."""
    mutated = False
    for index, how, pick in changes:
        if how == "mutate" and mutated:
            continue
        sites = [(n, v) for n in expr.walk() if (v := _variant(n, how, pick)) is not n]
        if sites:
            target, new = sites[index % len(sites)]
            expr = _rebuild(expr, target, new)
            mutated |= how == "mutate"
    return expr


_CHANGES = st.tuples(st.integers(0, 63),
                     st.sampled_from(["commute", "reassociate", "mutate"]),
                     st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_exprs(2, 3).filter(lambda e: e.startswith("(")),
       st.lists(_CHANGES, min_size=1, max_size=4))
def test_symbolic_pass_is_an_exhaustive_pass(expr_text, changes):
    """At width 2, 3 inputs x 2 frames is 12 bits, so simulation is
    exhaustive: every symbolic pass must be an exhaustive pass, and every
    other verdict must be the simulated one. The variant applies a few
    changes at nodes where they apply, at most one of them a mutation."""
    golden = _design(2, expr_text)
    candidate = _design(2, print_expr(_changed(golden.assigns[0].expr, changes)))
    checked = check_equivalence(golden, candidate, BackendConfig())
    simulated = simulate_equivalence(golden, candidate)
    assert simulated.mode == SEC_EXHAUSTIVE
    if checked.mode == SEC_SYMBOLIC:
        assert simulated.passed, (expr_text, print_expr(expr))
    else:
        assert checked == simulated


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 4, 7, 8)).flatmap(lambda w: st.tuples(st.just(w), _exprs(w, 3))),
       st.lists(_CHANGES, min_size=1, max_size=4))
def test_chunked_verdict_is_the_whole_batch_verdict(case, changes):
    """A check walks its reference chunk by chunk and stops at the first
    mismatch; its verdict passes exactly when one co-simulation of every
    chunk it would walk, joined into one batch, shows no mismatch. Width 3
    is exhaustive (18 input bits over 2 frames), the others are sampled.
    Every counterexample replays."""
    width, expr_text = case
    golden = _design(width, expr_text)
    candidate = _design(width, print_expr(_changed(golden.assigns[0].expr, changes)))
    verdict = simulate_equivalence(golden, candidate)
    ref = GoldenSec(golden).reference(2)
    chunks = list(ref.walk(candidate))
    joined = [{v: np.concatenate([inputs[f][v] for inputs, _ in chunks]) for v in _VARS}
              for f in range(2)]
    g = CompiledDesign(golden).run(joined, 2)
    c = CompiledDesign(candidate).run(joined, 2)
    assert verdict.mode == ref.mode == (SEC_EXHAUSTIVE if width == 3 else SEC_BOUNDED)
    assert verdict.passed == all(np.array_equal(g[f]["y"], c[f]["y"]) for f in range(2))
    if not verdict.passed:
        cex = verdict.counterexample
        trace = list(cex.input_trace)
        assert simulate(golden, trace, 2)[cex.frame][cex.output] == cex.golden_value
        assert simulate(candidate, trace, 2)[cex.frame][cex.output] == cex.candidate_value
        assert cex.golden_value != cex.candidate_value


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=16),
       st.floats(-5, 5), st.floats(0.1, 10))
def test_group_advantage_affine_invariance(scores, shift, scale):
    mean = sum(scores) / len(scores)
    stddev = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
    # Near the degenerate-spread cutoff, scaling can flip the all-zero
    # branch; that regime is covered by the explicit degenerate-case tests.
    assume(stddev == 0.0 or stddev > 1e-9)
    base = group_advantage(scores)
    moved = group_advantage([s * scale + shift for s in scores])
    assert all(abs(x - y) < 1e-6 for x, y in zip(base, moved))


# Every iteration diagnoses the same two paths; a slot is (path, strategy,
# SEC pass, score), and the passers' advantages come from group_advantage.
_PATHS = tuple(
    BottleneckDiagnosis(TimingPath("a", "y", -0.1, ()), pattern, pattern,
                        RtlRegion("m.rtl", 1, 2, "exact"), "test")
    for pattern in ("wide-arithmetic", "mux-heavy-selection"))
_slots = st.lists(st.tuples(st.integers(0, len(_PATHS) - 1),
                            st.sampled_from(["tree-rebalance", "decomposition",
                                             "mux-restructure"]),
                            st.booleans(), st.floats(-2, 2)),
                  min_size=1, max_size=5)


def _finalized_iteration(t, slots):
    advantages = iter(group_advantage([score for _, _, passed, score in slots if passed]))
    candidates = [
        CandidateRecord(f"t{t}c{i}", "x" * 16, "rule", strategy=strategy, path=path,
                        eval=EvalResult(PpaMetrics(-0.1, -0.1, 96.0), passed, "exhaustive"),
                        score=CandidateScore(0.0, 0.0, 0.0, 0.0, score),
                        advantage=next(advantages) if passed else None)
        for i, (path, strategy, passed, score) in enumerate(slots)]
    return IterationRecord(t, "p", len(candidates), list(_PATHS), candidates,
                           finalized=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_slots, st.integers(0, 2)), min_size=1, max_size=8))
def test_merging_disjoint_libraries_is_distilling_their_union(groups):
    """Libraries distilled from disjoint sets of iterations merge into the
    library distilled from all of them."""
    whole, parts = SkillLibrary(), [SkillLibrary() for _ in range(3)]
    for t, (slots, owner) in enumerate(groups):
        iteration = _finalized_iteration(t, slots)
        key = design_hash(canonical_json(iteration.to_dict()))
        distill(iteration, whole, key)
        distill(iteration, parts[owner], key)
    merged = merge(parts)
    assert sorted(merged.distilled_iterations) == sorted(whole.distilled_iterations)
    assert merged.entries.keys() == whole.entries.keys()
    for key, skill in whole.entries.items():
        got = merged.entries[key]
        assert got.occurrence_count == skill.occurrence_count
        assert got.sec_pass_count == skill.sec_pass_count
        assert abs(got.mean_advantage - skill.mean_advantage) <= 1e-9
        assert got.tier == skill.tier
    assert canonical_json(merge([whole]).to_dict()) == canonical_json(whole.to_dict())
