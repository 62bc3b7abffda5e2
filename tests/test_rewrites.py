"""Rewrite catalog: per-strategy behavior and equivalence preservation."""

import pytest

from corpus import REWRITE_CORPUS
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
    REGIONAL_STRATEGIES,
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


def test_only_regional_strategies_read_the_region():
    """A region that holds no statement stops every regional strategy and
    changes nothing for the others, so the proposer widens only the
    regional ones."""
    def attempt(parent, strategy, region):
        try:
            return apply_strategy(parent, strategy, region=region)
        except NotApplicable:
            return None

    applied = set()
    for source in REWRITE_CORPUS:
        parent = parse(source)
        for strategy in STRATEGY_FUNCTIONS:
            outside = attempt(parent, strategy, (0, 0))
            whole = attempt(parent, strategy, None)
            if strategy in REGIONAL_STRATEGIES:
                assert outside is None, (source, strategy)
            else:
                assert outside is whole, (source, strategy)
            if whole is not None:
                applied.add(strategy)
    assert applied == set(STRATEGY_FUNCTIONS)


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
