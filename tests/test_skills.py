"""Skill library: distillation, tiering, matching, merging, import/export."""

import pytest

from rtlopt.backend import EvalResult, PpaMetrics
from rtlopt.scoring import CandidateScore
from rtlopt.skills import (
    Skill,
    SkillError,
    SkillLibrary,
    assign_tier,
    distill,
    export_library,
    import_library,
    match,
    merge,
)
from rtlopt.timing import BottleneckDiagnosis, RtlRegion, TimingPath, TimingReport
from rtlopt.trajectory import CandidateRecord, IterationRecord, PathEvent


def _diag(pattern):
    path = TimingPath(startpoint="a", endpoint="y", slack_ns=-0.1, stages=())
    region = RtlRegion("m.rtl", 1, 2, "exact")
    return BottleneckDiagnosis(path, pattern, "wide-arithmetic", region, "test")


def _cand(cid, pattern, strategy, advantage, sec_pass=True, status="ok"):
    record = CandidateRecord(
        candidate_id=cid, design_ref="x" * 16, proposer_kind="rule",
        eval=EvalResult(PpaMetrics(-0.1, -0.1, 96.0), sec_pass, "exhaustive",
                        TimingReport(clock_ns=0.5, endpoints=()), "builtin"),
        score=CandidateScore(0, 0, 0, 0, -0.1, sec_pass),
        advantage=advantage if sec_pass else None,
        status=status)
    record.path_events.append(PathEvent(
        diagnosis=_diag(pattern), strategy=strategy,
        description=f"apply {strategy}",
        edit_region={"file": "m.rtl", "start_line": 1, "end_line": 2}))
    return record


def _iteration(index, cands):
    return IterationRecord(index=index, parent_id="p", group_size=len(cands),
                           candidates=cands, finalized=True)


def test_distill_creates_entry_with_batch_mean():
    lib = SkillLibrary()
    it = _iteration(0, [
        _cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
        _cand("c1", "wide-arithmetic", "tree-rebalance", 0.5),
        _cand("c2", "wide-arithmetic", "decomposition", 0.2, sec_pass=False),
    ])
    distill(it, lib, run_id="run-a")
    skill = lib.get("wide-arithmetic", "tree-rebalance")
    assert skill.occurrence_count == 2
    assert skill.sec_pass_count == 2
    assert skill.mean_advantage == pytest.approx(-0.25)
    failing = lib.get("wide-arithmetic", "decomposition")
    assert failing.occurrence_count == 1
    assert failing.sec_pass_count == 0
    assert "run-a" in lib.provenance


def test_distill_idempotent_per_run_iteration():
    lib = SkillLibrary()
    it = _iteration(0, [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0)])
    distill(it, lib, run_id="r")
    before = lib.to_dict()
    distill(it, lib, run_id="r")
    assert lib.to_dict() == before
    # same index under a different run id is new evidence
    distill(it, lib, run_id="r2")
    assert lib.get("wide-arithmetic", "tree-rebalance").occurrence_count == 2


def test_distill_order_independent_within_iteration():
    a = SkillLibrary()
    b = SkillLibrary()
    cands = [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
             _cand("c1", "wide-arithmetic", "tree-rebalance", 0.5)]
    distill(_iteration(0, cands), a, run_id="r")
    distill(_iteration(0, list(reversed(cands))), b, run_id="r")
    assert a.to_dict()["entries"] == b.to_dict()["entries"]


def test_distill_skips_skipped_and_requires_finalized():
    lib = SkillLibrary()
    skipped = CandidateRecord(candidate_id="c0", design_ref="", proposer_kind="rule",
                              status="skipped")
    distill(_iteration(0, [skipped]), lib, run_id="r")
    assert not lib.entries
    pending = _iteration(1, [_cand("c1", "wide-arithmetic", "tree-rebalance", -1.0)])
    pending.finalized = False
    with pytest.raises(SkillError):
        distill(pending, lib, run_id="r")


def _skill(occ, passes, mean):
    s = Skill(pattern="wide-arithmetic", strategy="tree-rebalance",
              occurrence_count=occ, sec_pass_count=passes, mean_advantage=mean)
    s.tier = assign_tier(s)
    return s


@pytest.mark.parametrize("occ,passes,mean,tier", [
    (1, 1, -1.0, "low"),        # too little evidence
    (2, 0, -1.0, "avoid"),      # pass rate below 0.5
    (2, 2, 0.6, "avoid"),       # consistently harmful
    (3, 3, -0.6, "high"),
    (2, 2, -0.3, "medium"),
    (3, 2, -0.1, "medium"),     # r=0.67 >= 0.6, m < 0
    (3, 3, 0.1, "low"),         # m >= 0 but < 0.5
])
def test_tier_assignment(occ, passes, mean, tier):
    assert _skill(occ, passes, mean).tier == tier


def test_match_ranks_by_tier_then_mean():
    lib = SkillLibrary()
    entries = [
        ("wide-arithmetic", "tree-rebalance", 3, 3, -0.9),        # high
        ("wide-arithmetic", "decomposition", 2, 2, -0.3),         # medium
        ("wide-arithmetic", "constant-fold", 1, 1, -0.2),         # low
        ("wide-arithmetic", "signal-replication", 2, 0, 0.0),     # avoid
        ("mux-heavy-selection", "mux-restructure", 3, 3, -0.8),   # other pattern
    ]
    for pattern, strategy, occ, passes, mean in entries:
        s = Skill(pattern=pattern, strategy=strategy, occurrence_count=occ,
                  sec_pass_count=passes, mean_advantage=mean)
        s.tier = assign_tier(s)
        lib.entries[(pattern, strategy)] = s
    result = match("wide-arithmetic", lib)
    assert [s.strategy for s in result.recommendations] == [
        "tree-rebalance", "decomposition", "constant-fold"]
    assert [s.strategy for s in result.prohibitions] == ["signal-replication"]
    assert match("excessive-depth", lib).recommendations == ()


def test_merge_count_weighted_and_commutative():
    def lib_with(occ, passes, mean, runs):
        lib = SkillLibrary(provenance=list(runs))
        s = Skill(pattern="wide-arithmetic", strategy="tree-rebalance",
                  occurrence_count=occ, sec_pass_count=passes, mean_advantage=mean)
        s.tier = assign_tier(s)
        lib.entries[(s.pattern, s.strategy)] = s
        return lib

    a = lib_with(3, 2, -0.5, ["ra"])
    b = lib_with(1, 1, 0.4, ["rb"])
    ab = merge([a, b])
    skill = ab.get("wide-arithmetic", "tree-rebalance")
    assert skill.occurrence_count == 4
    assert skill.sec_pass_count == 3
    assert skill.mean_advantage == pytest.approx((-0.5 * 2 + 0.4 * 1) / 3)
    assert sorted(ab.provenance) == ["ra", "rb"]

    ba = merge([b, a])
    assert ba.to_dict()["entries"] == ab.to_dict()["entries"]
    c = lib_with(2, 2, -0.1, ["rc"])
    left = merge([merge([a, b]), c]).get("wide-arithmetic", "tree-rebalance")
    right = merge([a, merge([b, c])]).get("wide-arithmetic", "tree-rebalance")
    assert left.mean_advantage == pytest.approx(right.mean_advantage, abs=1e-9)
    assert left.occurrence_count == right.occurrence_count


def test_merge_template_conflict_raises():
    def lib_with_template(text):
        lib = SkillLibrary()
        s = Skill(pattern="wide-arithmetic", strategy="tree-rebalance",
                  occurrence_count=1, sec_pass_count=1, template=text)
        lib.entries[(s.pattern, s.strategy)] = s
        return lib

    with pytest.raises(SkillError):
        merge([lib_with_template("balance it"), lib_with_template("other recipe")])


def test_export_import_roundtrip(tmp_path):
    lib = SkillLibrary()
    it = _iteration(0, [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
                        _cand("c1", "mux-heavy-selection", "mux-restructure", -0.4)])
    distill(it, lib, run_id="r")
    path = str(tmp_path / "skills.json")
    export_library(lib, path)
    again = import_library(path)
    assert again.to_dict() == lib.to_dict()
    export_library(again, str(tmp_path / "skills2.json"))
    assert open(path).read() == open(str(tmp_path / "skills2.json")).read()


def test_import_rejects_bad_schema(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"version":99,"entries":[]}')
    with pytest.raises(SkillError):
        import_library(path)
