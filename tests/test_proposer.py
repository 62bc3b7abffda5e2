"""Proposer: slot split, skill exploitation, exploration, dedup, markers."""

from corpus import CHAIN_ADDER_8
from rtlopt.backend import synthesize
from rtlopt.dsl import parse, print_design
from rtlopt.proposer import Proposal, ProposerConfig, propose_group
from rtlopt.skills import Skill, SkillLibrary
from rtlopt.timing import diagnose, select_critical_paths


def _diagnoses(design, bcfg, k=1):
    _, report = synthesize(design, bcfg)
    return [diagnose(p, design) for p in select_critical_paths(report, k)]


def _library(*entries):
    lib = SkillLibrary()
    for pattern, strategy, occ, passes, mean in entries:
        lib.entries[(pattern, strategy)] = Skill(
            pattern=pattern, strategy=strategy, occurrence_count=occ,
            sec_pass_count=passes, mean_advantage=mean)
    return lib


def test_group_size_and_slot_split(bcfg):
    parent = parse(CHAIN_ADDER_8)
    lib = _library(("wide-arithmetic", "tree-rebalance", 3, 3, -0.9),
                   ("wide-arithmetic", "decomposition", 2, 2, -0.3))
    proposals = propose_group(parent, _diagnoses(parent, bcfg), lib,
                              ProposerConfig(n_candidates=5,
                                             exploration_fraction=0.4))
    assert len(proposals) == 5
    skill_guided = [p for p in proposals if p.provenance == "skill-guided"]
    # ceil(0.6 * 5) = 3 exploitation slots, limited by applicable matches
    assert 1 <= len(skill_guided) <= 3
    # The library entry it applied is (its diagnosis's pattern, its strategy).
    assert skill_guided[0].strategy == "tree-rebalance"
    assert skill_guided[0].diagnosis.pattern == "wide-arithmetic"


def test_exploration_only_with_empty_library(bcfg):
    parent = parse(CHAIN_ADDER_8)
    proposals = propose_group(parent, _diagnoses(parent, bcfg), SkillLibrary(),
                              ProposerConfig(n_candidates=4))
    assert len(proposals) == 4
    assert all(p.provenance in ("rule", "skipped") for p in proposals)
    assert any(p.provenance == "rule" for p in proposals)


def test_avoid_tier_not_exploited(bcfg):
    parent = parse(CHAIN_ADDER_8)
    lib = _library(("wide-arithmetic", "tree-rebalance", 2, 0, 0.0))  # avoid
    proposals = propose_group(parent, _diagnoses(parent, bcfg), lib,
                              ProposerConfig(n_candidates=3))
    assert all(p.provenance != "skill-guided" for p in proposals)


def test_no_duplicate_candidates(bcfg):
    parent = parse(CHAIN_ADDER_8)
    proposals = propose_group(parent, _diagnoses(parent, bcfg), SkillLibrary(),
                              ProposerConfig(n_candidates=8))
    designs = [p.design for p in proposals if not p.skipped]
    assert all(d.source == print_design(d) for d in designs)
    sources = [d.source for d in designs]
    assert len(sources) == len(set(sources))
    assert print_design(parent) not in sources


def test_skipped_markers_pad_unfillable_slots(bcfg):
    # A design almost no strategy applies to.
    parent = parse("module t(input a, output y); assign y = ~a; endmodule")
    proposals = propose_group(parent, _diagnoses(parent, bcfg), SkillLibrary(),
                              ProposerConfig(n_candidates=6))
    assert len(proposals) == 6
    skipped = [p for p in proposals if p.skipped]
    assert skipped and all(p.design is None for p in skipped)
    assert all(p.provenance == "skipped" for p in skipped)


def test_cycles_over_multiple_diagnoses(bcfg):
    parent = parse("""\
module two(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d,
           output [7:0] y, output [7:0] z);
  assign y = ((a + b) + c) + d;
  assign z = ((a - b) - c) - d;
endmodule
""")
    diagnoses = _diagnoses(parent, bcfg, k=2)
    assert len(diagnoses) == 2
    lib = _library(("wide-arithmetic", "tree-rebalance", 3, 3, -0.9),
                   ("wide-arithmetic", "decomposition", 3, 3, -0.8))
    proposals = propose_group(parent, diagnoses, lib,
                              ProposerConfig(n_candidates=2,
                                             exploration_fraction=0.0))
    assert len(proposals) == 2
    endpoints = {p.diagnosis.path.endpoint for p in proposals}
    assert endpoints == {"y", "z"}


def test_config_validation():
    import pytest
    with pytest.raises(ValueError):
        ProposerConfig(n_candidates=0)
    with pytest.raises(ValueError):
        ProposerConfig(exploration_fraction=1.5)


def test_proposals_reference_diagnosis_region(bcfg):
    parent = parse(CHAIN_ADDER_8)
    diagnoses = _diagnoses(parent, bcfg)
    proposals = propose_group(parent, diagnoses, SkillLibrary(),
                              ProposerConfig(n_candidates=3))
    concrete = [p for p in proposals if not p.skipped]
    assert concrete
    for p in concrete:
        assert p.diagnosis is diagnoses[0]
        assert p.strategy is not None
