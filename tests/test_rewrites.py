"""Rewrite catalog: per-strategy behavior and equivalence preservation."""

import pytest

from corpus import REWRITE_CORPUS
from rtlopt import rewrites
from rtlopt.backend import (
    SEC_EXHAUSTIVE,
    SEC_SYMBOLIC,
    BackendConfig,
    check_equivalence,
    simulate_equivalence,
    synthesize,
)
from rtlopt.dsl import parse, print_design
from rtlopt.rewrites import (
    NotApplicable,
    STRATEGY_FUNCTIONS,
    apply_strategy,
    common_subexpression_extraction,
    constant_fold,
    condition_precompute,
    decomposition,
    mux_restructure,
    selective_register_insertion,
    signal_replication,
    tree_rebalance,
)


def _sec_pass(parent, child, bcfg):
    return check_equivalence(parent, child, bcfg).passed


def test_tree_rebalance_reduces_depth(bcfg):
    parent = parse(REWRITE_CORPUS[0])  # ((a+b)+c)+d
    child = tree_rebalance(parent)
    before, _ = synthesize(parent, bcfg)
    after, _ = synthesize(child, bcfg)
    assert after.wns > before.wns
    assert after.area == before.area
    assert _sec_pass(parent, child, bcfg)


def test_tree_rebalance_not_applicable_when_balanced():
    balanced = parse("""\
module b(input [1:0] a, input [1:0] b, input [1:0] c, input [1:0] d, output [1:0] y);
  assign y = (a + b) + (c + d);
endmodule
""")
    with pytest.raises(NotApplicable):
        tree_rebalance(balanced)


def test_cse_extracts_shared_wire(bcfg):
    parent = parse(REWRITE_CORPUS[1])
    child = common_subexpression_extraction(parent)
    assert len(child.nets) > len(parent.nets)
    assert print_design(child).count("a & b") == 1
    assert _sec_pass(parent, child, bcfg)


def test_condition_precompute_hoists_compare(bcfg):
    parent = parse(REWRITE_CORPUS[2])
    child = condition_precompute(parent)
    assert len(child.nets) > len(parent.nets)
    assert _sec_pass(parent, child, bcfg)


def test_mux_restructure_builds_tree(bcfg):
    parent = parse(REWRITE_CORPUS[2])
    child = mux_restructure(parent)
    before, _ = synthesize(parent, bcfg)
    after, _ = synthesize(child, bcfg)
    assert _sec_pass(parent, child, bcfg)
    assert after.wns >= before.wns


def test_mux_restructure_requires_one_hot_chain():
    priority = parse("""\
module p(input s0, input s1, input a, input b, input c, output y);
  assign y = s0 ? a : (s1 ? b : c);
endmodule
""")
    with pytest.raises(NotApplicable):
        mux_restructure(priority)


def test_signal_replication_splits_fanout(bcfg):
    parent = parse(REWRITE_CORPUS[3])
    child = signal_replication(parent)
    assert len(child.nets) > len(parent.nets)
    assert _sec_pass(parent, child, bcfg)


def test_selective_register_insertion_duplicates_register(bcfg):
    parent = parse(REWRITE_CORPUS[4])
    child = selective_register_insertion(parent)
    assert len(child.registers) == len(parent.registers) + 1
    assert _sec_pass(parent, child, bcfg)  # latency must be preserved
    before, _ = synthesize(parent, bcfg)
    after, _ = synthesize(child, bcfg)
    assert after.area > before.area


def test_constant_fold_simplifies(bcfg):
    parent = parse(REWRITE_CORPUS[5])  # (a & 2'd0) | (b + 2'd0)
    child = constant_fold(parent)
    assert print_design(child).count("a") < print_design(parent).count("a")
    assert _sec_pass(parent, child, bcfg)
    folded = constant_fold(
        parse("module f(input a, output y); assign y = a & 1'b0; endmodule"))
    assert folded.assigns[0].expr.kind == "const"
    assert folded.assigns[0].expr.value == 0


@pytest.mark.parametrize("expr,folded", [
    # identity constants
    ("a & 2'd3", "a"), ("a | 2'd0", "a"), ("2'd0 ^ a", "a"), ("a + 2'd0", "a"),
    # absorbing constants
    ("a & 2'd0", "2'd0"), ("2'd3 | a", "2'd3"),
    # all-constant operands
    ("2'd1 + 2'd3", "2'd0"), ("~2'd1", "2'd2"), ("2'd1 - 2'd2", "2'd3"),
    ("(2'd1 == 2'd1) ? b : a", "b"),
    # constant select
    ("1'b1 ? a : b", "a"), ("1'b0 ? a : b", "b"),
    # x - 0, and 0 - x left alone
    ("a - 2'd0", "a"), ("2'd0 - a", None),
    # bottom-up: a folded operand enables its parent's rule
    ("((a ^ 2'd0) + (2'd1 - 2'd1)) & (s ? b : 2'd3)", "(a & (s ? b : 2'd3))"),
])
def test_constant_fold_rules_print_pinned_text(expr, folded):
    """constant_fold applies the normal form's folding rules; the texts were
    printed by the implementation that kept its own copy of them."""
    parent = parse("module f(input [1:0] a, input [1:0] b, input s, output [1:0] y);\n"
                   f"  assign y = {expr};\nendmodule\n")
    if folded is None:
        with pytest.raises(NotApplicable):
            constant_fold(parent)
    else:
        assert print_design(constant_fold(parent)).splitlines()[1] == f"  assign y = {folded};"


def test_decomposition_introduces_stage_wires(bcfg):
    parent = parse(REWRITE_CORPUS[0])
    child = decomposition(parent)
    assert len(child.nets) > len(parent.nets)
    assert _sec_pass(parent, child, bcfg)


def test_apply_strategy_region_scoped():
    parent = parse(REWRITE_CORPUS[0])
    child = apply_strategy(parent, "tree-rebalance", region=(2, 2))
    assert child is not None
    with pytest.raises(NotApplicable):
        apply_strategy(parent, "constant-fold")


# Two sites per site-taking strategy on different lines, so the region
# decides which one is taken.
_TWO_SITES = """\
module two(input [1:0] sel, input [1:0] a, input [1:0] b, input [1:0] c, input [1:0] d,
           output [1:0] y1, output [1:0] y2, output [1:0] y3, output [1:0] y4);
  assign y1 = ((a + b) + c) + d;
  assign y2 = ((a ^ b) ^ c) ^ d;
  assign y3 = (sel == 2'd0) ? a : ((sel == 2'd1) ? b : ((sel == 2'd2) ? c : d));
  assign y4 = (a < b) ? ((sel == 2'd3) ? c : ((sel == 2'd2) ? d : ((sel == 2'd1) ? a : b))) : c;
endmodule
"""

# The strategies that used to look only inside the region, and that the
# proposer then retried on the whole design.
_FORMERLY_REGIONAL = {"condition-precompute", "tree-rebalance", "mux-restructure",
                      "decomposition"}


def _region_filter(design, region):
    """The former statement scan: only statements whose line lies in region."""
    def inside(loc):
        return region is None or region[0] <= loc[0] <= region[1]

    return ([("assign", i, a.expr) for i, a in enumerate(design.assigns) if inside(a.loc)]
            + [("reg", i, r.next) for i, r in enumerate(design.registers) if inside(r.loc)])


def test_region_first_search_equals_filter_then_widen(monkeypatch):
    """Searching the region's statements first and then the rest picks the
    site that the former rule picked: look in the region only, and retry the
    formerly regional strategies on the whole design. The result is the same
    design object, for every corpus design, strategy and region. A region
    over every line, as a heuristic-failed diagnosis gives, acts as None."""
    def reference(parent, strategy, region):
        with monkeypatch.context() as patch:
            patch.setattr(rewrites, "_statements", _region_filter)
            for scope in ([region, None] if strategy in _FORMERLY_REGIONAL else [region]):
                try:
                    return apply_strategy(parent, strategy, region=scope)
                except NotApplicable:
                    pass
        return None

    applied, steered = set(), 0
    for source in REWRITE_CORPUS + [_TWO_SITES]:
        parent = parse(source)
        lines = len(source.splitlines())
        for strategy in STRATEGY_FUNCTIONS:
            whole = reference(parent, strategy, None)
            for region in [None, (0, 0), (1, lines)] + [(n, n) for n in range(1, lines + 1)]:
                expected = reference(parent, strategy, region)
                try:
                    got = apply_strategy(parent, strategy, region=region)
                except NotApplicable:
                    got = None
                assert got is expected, (source, strategy, region)
                if region == (1, lines):
                    assert got is whole, (source, strategy)
                steered += got is not whole
            if whole is not None:
                applied.add(strategy)
    assert applied == set(STRATEGY_FUNCTIONS)
    assert steered >= 4  # some regions pick a site other than the first in the design


def test_apply_strategy_unknown_name():
    parent = parse(REWRITE_CORPUS[0])
    with pytest.raises(NotApplicable):
        apply_strategy(parent, "no-such-strategy")


def test_rewrites_are_reparsed_and_printable():
    for source in REWRITE_CORPUS:
        parent = parse(source)
        for strategy in STRATEGY_FUNCTIONS:
            try:
                child = apply_strategy(parent, strategy)
            except NotApplicable:
                continue
            assert print_design(parse(print_design(child))) == print_design(child)


def test_catalog_preserves_equivalence_everywhere(bcfg):
    """Every applicable (design, strategy, site) application passes SEC, by
    simulation and by check_equivalence; every register-free application
    but mux-restructure is proved by normal form."""
    applied = 0
    for source in REWRITE_CORPUS:
        parent = parse(source)
        lines = len(source.splitlines())
        regions = [None] + [(n, n) for n in range(1, lines + 1)]
        for strategy in STRATEGY_FUNCTIONS:
            for region in regions:
                try:
                    child = apply_strategy(parent, strategy, region=region)
                except NotApplicable:
                    continue
                verdict = simulate_equivalence(parent, child)
                assert verdict.mode == SEC_EXHAUSTIVE
                assert verdict.passed, (source, strategy, region)
                register_free = not parent.registers and not child.registers
                proved = register_free and strategy != "mux-restructure"
                assert check_equivalence(parent, child, bcfg).mode == (
                    SEC_SYMBOLIC if proved else SEC_EXHAUSTIVE), (source, strategy, region)
                applied += 1
    assert applied >= 20  # the corpus exercises the whole catalog
