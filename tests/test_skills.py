"""Skill library: distillation, tiering, matching, merging, import/export."""

import pytest

from rtlopt.backend import EvalResult, PpaMetrics
from rtlopt.records import ConfigError
from rtlopt.scoring import CandidateScore
from rtlopt.skills import (
    Skill,
    SkillError,
    SkillLibrary,
    distill,
    export_library,
    import_library,
    match,
    merge,
)
from rtlopt.timing import BottleneckDiagnosis, RtlRegion, TimingPath
from rtlopt.trajectory import CandidateRecord, IterationRecord, canonical_json, design_hash


def _diag(pattern):
    path = TimingPath(startpoint="a", endpoint="y", slack_ns=-0.1, stages=())
    region = RtlRegion("m.rtl", 1, 2, "exact")
    return BottleneckDiagnosis(path, pattern, "wide-arithmetic", region, "test")


# An iteration's diagnosed paths; a candidate names one by its index.
_PATTERNS = ["wide-arithmetic", "mux-heavy-selection"]


def _cand(cid, pattern, strategy, advantage, sec_pass=True, status="ok"):
    return CandidateRecord(
        candidate_id=cid, design_ref="x" * 16, proposer_kind="rule",
        strategy=strategy, path=_PATTERNS.index(pattern),
        eval=EvalResult(PpaMetrics(-0.1, -0.1, 96.0), sec_pass, "exhaustive"),
        score=CandidateScore(0, 0, 0, 0, -0.1),
        advantage=advantage if sec_pass else None,
        status=status, note=f"apply {strategy}")


def _iteration(index, cands):
    return IterationRecord(index=index, parent_id="p", group_size=len(cands),
                           diagnoses=[_diag(p) for p in _PATTERNS],
                           candidates=cands, finalized=True)


def _distill(iteration, library):
    """Distill under the key the loop uses: the iteration's digest."""
    distill(iteration, library, design_hash(canonical_json(iteration.to_dict())))


def test_distill_creates_entry_with_batch_mean():
    lib = SkillLibrary()
    it = _iteration(0, [
        _cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
        _cand("c1", "wide-arithmetic", "tree-rebalance", 0.5),
        _cand("c2", "wide-arithmetic", "decomposition", 0.2, sec_pass=False),
    ])
    _distill(it, lib)
    skill = lib.get("wide-arithmetic", "tree-rebalance")
    assert skill.occurrence_count == 2
    assert skill.sec_pass_count == 2
    assert skill.mean_advantage == pytest.approx(-0.25)
    failing = lib.get("wide-arithmetic", "decomposition")
    assert failing.occurrence_count == 1
    assert failing.sec_pass_count == 0
    assert lib.distilled_iterations == [design_hash(canonical_json(it.to_dict()))]


def test_distill_idempotent_per_iteration_content():
    lib = SkillLibrary()
    it = _iteration(0, [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0)])
    _distill(it, lib)
    before = lib.to_dict()
    _distill(it, lib)
    assert lib.to_dict() == before
    # The same index with other content (another parent) is new evidence.
    other = _iteration(0, [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0)])
    other.parent_id = "q"
    _distill(other, lib)
    assert lib.get("wide-arithmetic", "tree-rebalance").occurrence_count == 2
    assert len(lib.distilled_iterations) == 2


def test_distill_order_independent_within_iteration():
    a = SkillLibrary()
    b = SkillLibrary()
    cands = [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
             _cand("c1", "wide-arithmetic", "tree-rebalance", 0.5)]
    _distill(_iteration(0, cands), a)
    _distill(_iteration(0, list(reversed(cands))), b)
    assert a.to_dict()["entries"] == b.to_dict()["entries"]


def test_distill_skips_skipped_and_requires_finalized():
    lib = SkillLibrary()
    skipped = CandidateRecord(candidate_id="c0", design_ref="", proposer_kind="rule",
                              status="skipped")
    llm = _cand("c1", "wide-arithmetic", None, 0.0)
    llm.proposer_kind = "llm"
    failed = _cand("c2", "wide-arithmetic", "tree-rebalance", None)
    failed.status, failed.eval, failed.score = "eval-error", None, None
    _distill(_iteration(0, [skipped, llm, failed]), lib)
    assert not lib.entries
    pending = _iteration(1, [_cand("c1", "wide-arithmetic", "tree-rebalance", -1.0)])
    pending.finalized = False
    with pytest.raises(SkillError):
        _distill(pending, lib)


def test_distill_requires_each_passers_advantage():
    lib = SkillLibrary()
    unscored = _cand("c0", "wide-arithmetic", "tree-rebalance", None)
    with pytest.raises(SkillError, match="c0 has no advantage"):
        _distill(_iteration(0, [unscored]), lib)


def _skill(occ, passes, mean):
    return Skill(pattern="wide-arithmetic", strategy="tree-rebalance",
                 occurrence_count=occ, sec_pass_count=passes, mean_advantage=mean)


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


def test_tier_is_derived_not_stored():
    skill = _skill(1, 1, -1.0)
    assert skill.tier == "low"
    skill.occurrence_count, skill.sec_pass_count = 3, 3
    assert skill.tier == "high"
    assert set(skill.to_dict()) == {"pattern", "strategy", "occurrence_count",
                                    "sec_pass_count", "mean_advantage"}


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
        lib.entries[(pattern, strategy)] = Skill(
            pattern=pattern, strategy=strategy, occurrence_count=occ,
            sec_pass_count=passes, mean_advantage=mean)
    result = match("wide-arithmetic", lib)
    assert [s.strategy for s in result.recommendations] == [
        "tree-rebalance", "decomposition", "constant-fold"]
    assert [s.strategy for s in result.prohibitions] == ["signal-replication"]
    assert match("excessive-depth", lib).recommendations == ()


def test_merge_count_weighted_and_commutative():
    def lib_with(occ, passes, mean, key):
        lib = SkillLibrary(distilled_iterations=[key])
        s = Skill(pattern="wide-arithmetic", strategy="tree-rebalance",
                  occurrence_count=occ, sec_pass_count=passes, mean_advantage=mean)
        lib.entries[(s.pattern, s.strategy)] = s
        return lib

    a = lib_with(3, 2, -0.5, "ra")
    b = lib_with(1, 1, 0.4, "rb")
    ab = merge([a, b])
    skill = ab.get("wide-arithmetic", "tree-rebalance")
    assert skill.occurrence_count == 4
    assert skill.sec_pass_count == 3
    assert skill.mean_advantage == pytest.approx((-0.5 * 2 + 0.4 * 1) / 3)
    assert sorted(ab.distilled_iterations) == ["ra", "rb"]

    ba = merge([b, a])
    assert ba.to_dict()["entries"] == ab.to_dict()["entries"]
    c = lib_with(2, 2, -0.1, "rc")
    left = merge([merge([a, b]), c]).get("wide-arithmetic", "tree-rebalance")
    right = merge([a, merge([b, c])]).get("wide-arithmetic", "tree-rebalance")
    assert left.mean_advantage == pytest.approx(right.mean_advantage, abs=1e-9)
    assert left.occurrence_count == right.occurrence_count


def test_merge_refuses_libraries_that_share_an_iteration():
    a = SkillLibrary(distilled_iterations=["a0", "a1"])
    b = SkillLibrary(distilled_iterations=["b0", "a1"])
    with pytest.raises(SkillError, match="iteration a1;"):
        merge([a, b])
    with pytest.raises(SkillError, match="iteration a0;"):
        merge([a, a])


def test_export_import_roundtrip(tmp_path):
    lib = SkillLibrary()
    it = _iteration(0, [_cand("c0", "wide-arithmetic", "tree-rebalance", -1.0),
                        _cand("c1", "mux-heavy-selection", "mux-restructure", -0.4)])
    _distill(it, lib)
    path = str(tmp_path / "skills.json")
    export_library(lib, path)
    again = import_library(path)
    assert again.to_dict() == lib.to_dict()
    export_library(again, str(tmp_path / "skills2.json"))
    assert open(path).read() == open(str(tmp_path / "skills2.json")).read()


_ENTRY = '{"pattern":"wide-arithmetic","strategy":"tree-rebalance"'


@pytest.mark.parametrize("text, problem", [
    ('{"version":99,"entries":[]}', "version 99"),
    ('{"version":1,"provenance":[],"entries":[]}', "version 1"),
    ('{"version":2,"distilled_iterations":[["r",0]],"entries":[]}', "version 2"),
    ('{"version":3,"entries":[],"bogus":1}', "bogus"),
    ('{"version":3,"entries":[' + _ENTRY + ',"tier":"high"}]}', "tier"),
    ('{"version":3,"entries":[' + _ENTRY + ',"template":""}]}', "template"),
    ('{"version":3,"distilled_iterations":[["r",0]],"entries":[]}',
     "distilled_iterations: expected a string, got an array"),
    ('{"version":3,"distilled_iterations":"ab","entries":[]}',
     "distilled_iterations: expected an array, got a string"),
], ids=["version-99", "version-1", "version-2", "unknown-key", "entry-tier",
        "entry-template", "run-iteration-key", "keys-not-a-list"])
def test_import_rejects_bad_schema(tmp_path, text, problem):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ConfigError, match=problem):
        import_library(path)
