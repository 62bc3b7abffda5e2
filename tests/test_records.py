"""Record codec: round trips of every stored class and the two decoding policies."""

import json

import pytest

from rtlopt.backend import BackendConfig, EvalResult, ExternalConfig, PpaMetrics
from rtlopt.orchestrator import RunConfig
from rtlopt.proposer import LlmSettings, ProposerConfig
from rtlopt.scoring import CandidateScore, ScoreWeights
from rtlopt.skills import Skill
from rtlopt.timing import (
    BottleneckDiagnosis,
    RtlRegion,
    Stage,
    TimingPath,
    TimingReport,
)
from rtlopt.trajectory import (
    CANDIDATE_EVAL_ERROR,
    CANDIDATE_SKIPPED,
    CandidateRecord,
    IterationRecord,
    RunState,
    canonical_json,
)

METRICS = PpaMetrics(-0.23, -0.41, 96.0)
PATH = TimingPath("a", "y", -0.23, (Stage("add_3_14", "add", 0.21, "d.rtl", 3),
                                    Stage("add_3_18", "add", 0.21, "d.rtl", 3)))
REPORT = TimingReport(0.5, (PATH, TimingPath("b", "z", 0.1, ())))
REGION = RtlRegion("d.rtl", 3, 5, "exact")
DIAGNOSIS = BottleneckDiagnosis(PATH, "wide-arithmetic", "wide-arithmetic", REGION,
                                "2 adds of width 8")
EVAL = EvalResult(METRICS, True, "exhaustive")
SCORE = CandidateScore(-0.5, -0.25, 0.0, 0.0, -0.3375)

OK = CandidateRecord("t0c0", "abc123", "skill-guided", strategy="tree-rebalance",
                     path=0, eval=EVAL, score=SCORE, advantage=-1.0, note="rebalanced")
SKIPPED = CandidateRecord("t0c1", "", "rule", status=CANDIDATE_SKIPPED,
                          note="no applicable strategy")
EVAL_ERROR = CandidateRecord("t0c2", "def456", "llm", path=1,
                             status=CANDIDATE_EVAL_ERROR, note="synthesis exited 1")
ITERATION = IterationRecord(0, "root", 3, [DIAGNOSIS, DIAGNOSIS],
                            [OK, SKIPPED, EVAL_ERROR], "t0c0", True)
OPEN_ITERATION = IterationRecord(1, "abc123", 2, [DIAGNOSIS])

EXTERNAL = ExternalConfig("synth {top}", "sec {design_dir}",
                          {"wns": r"wns (\S+)", "tns": r"tns (\S+)", "area": r"area (\S+)"},
                          ("timing.rpt", "area.rpt"), 60.0)
LLM = LlmSettings("http://127.0.0.1:1", "m", timeout_s=5.0, max_retries=0)

RECORDS = {
    "metrics": METRICS,
    "stage": PATH.stages[0],
    "stage-wide": Stage("add_3_14", "add", 0.37, "d.rtl", 3, col=14, width=16),
    "path": PATH,
    "report": REPORT,
    "region": REGION,
    "diagnosis": DIAGNOSIS,
    "eval": EVAL,
    "score": SCORE,
    "candidate-ok": OK,
    "candidate-skipped": SKIPPED,
    "candidate-eval-error": EVAL_ERROR,
    "iteration": ITERATION,
    "iteration-open": OPEN_ITERATION,
    "state": RunState("r", "chain", RunConfig().to_dict(), METRICS, "root",
                      [ITERATION, OPEN_ITERATION], "budget-exhausted"),
    "state-new": RunState("r", "chain", {}),
    "weights": ScoreWeights(0.4, 0.4, 0.2, 0.25, 0.2),
    "external": EXTERNAL,
    "backend-external": BackendConfig(0.1, EXTERNAL),
    "backend-builtin": BackendConfig(),
    "llm": LLM,
    "proposer-llm": ProposerConfig(3, 0.5, LLM),
    "proposer": ProposerConfig(),
    "run-config": RunConfig(2, 3, 1, ScoreWeights(gamma=0.3),
                            BackendConfig(0.1, EXTERNAL),
                            ProposerConfig(3, 0.5, LLM), 7),
    "skill": Skill("wide-arithmetic", "tree-rebalance", 3, 2, -0.5),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_round_trip_through_json(record):
    text = canonical_json(record.to_dict())
    again = type(record).from_dict(json.loads(text))
    assert again == record
    assert canonical_json(again.to_dict()) == text


def test_stage_keeps_the_interchange_form():
    assert PATH.stages[0].to_dict() == {
        "node": "add_3_14", "op": "add", "delay_ns": 0.21, "width": 1,
        "loc": {"file": "d.rtl", "line": 3, "col": 0}}


def test_complete_record_writes_none_fields():
    d = SKIPPED.to_dict()
    assert d["eval"] is None and d["path"] is None and d["advantage"] is None


def test_settings_omit_none_fields():
    assert "external" not in BackendConfig().to_dict()
    assert "llm" not in ProposerConfig().to_dict()


def test_settings_default_absent_keys():
    assert ProposerConfig.from_dict({}) == ProposerConfig()
    assert RunConfig.from_dict({"seed": 3}) == RunConfig(seed=3)


def test_complete_record_requires_every_key():
    d = SKIPPED.to_dict()
    del d["strategy"]
    with pytest.raises(TypeError, match="CandidateRecord: missing key 'strategy'"):
        CandidateRecord.from_dict(d)


@pytest.mark.parametrize("cls, d, key", [
    (PpaMetrics, METRICS.to_dict(), "power"),
    (CandidateRecord, SKIPPED.to_dict(), "path_events"),
    (LlmSettings, LLM.to_dict(), "power"),
    (RunConfig, {}, "power"),
], ids=["record", "nested-record", "settings", "run-config"])
def test_unknown_key_is_a_type_error_naming_it(cls, d, key):
    with pytest.raises(TypeError, match=key):
        cls.from_dict({**d, key: 1})


@pytest.mark.parametrize("cls, d", [
    (PpaMetrics, {"wns": None, "tns": 0.0, "area": 0.0}),
    (CandidateRecord, {**SKIPPED.to_dict(), "status": None}),
    (ScoreWeights, {"alpha": None}),
    (RunConfig, {"backend": None}),
    (Skill, {"pattern": "wide-arithmetic", "strategy": "tree-rebalance",
             "mean_advantage": None}),
], ids=["record", "nested-record", "settings", "section", "skill"])
def test_null_for_a_non_optional_field_is_a_type_error(cls, d):
    with pytest.raises(TypeError, match="must not be null"):
        cls.from_dict(d)


@pytest.mark.parametrize("cls", [PpaMetrics, RunConfig])
def test_non_object_is_a_type_error(cls):
    with pytest.raises(TypeError, match="must be an object"):
        cls.from_dict([])


_PATTERNS = {"wns": r"wns (\S+)", "tns": r"tns (\S+)", "area": r"area (\S+)"}
_LLM = {"base_url": "http://127.0.0.1:1", "model": "m"}


@pytest.mark.parametrize("cls, d, error, message", [
    (RunConfig, {"iterations": True}, TypeError,
     "RunConfig.iterations: expected an integer, got a boolean"),
    (RunConfig, {"iterations": 1.5}, TypeError,
     "RunConfig.iterations: expected an integer, got a number"),
    (RunConfig, {"iterations": 2.0}, TypeError,
     "RunConfig.iterations: expected an integer, got a number"),
    (RunConfig, {"backend": {"clock_period": float("nan")}}, ValueError,
     "RunConfig.backend: BackendConfig.clock_period: must be a finite float"),
    (ScoreWeights, {"alpha": float("inf")}, ValueError,
     "ScoreWeights.alpha: must be a finite float"),
    (PpaMetrics, {"wns": float("-inf"), "tns": 0.0, "area": 0.0}, ValueError,
     "PpaMetrics.wns: must be a finite float"),
    (BackendConfig, {"clock_period": 10**400}, ValueError,
     "BackendConfig.clock_period: must be a finite float"),
    (BackendConfig, {"clock_period": "0.5"}, TypeError,
     "BackendConfig.clock_period: expected a number, got a string"),
    (ExternalConfig, {"synth_command_template": "true", "metric_patterns": _PATTERNS,
                      "report_files": "timing_report.json"}, TypeError,
     "ExternalConfig.report_files: expected an array, got a string"),
    (ExternalConfig, {"synth_command_template": "true", "metric_patterns": _PATTERNS,
                      "report_files": [5]}, TypeError,
     "ExternalConfig.report_files: expected a string, got an integer"),
    (ExternalConfig, {"synth_command_template": "true", "metric_patterns": []}, TypeError,
     "ExternalConfig.metric_patterns: expected an object, got an array"),
    (LlmSettings, {**_LLM, "model": 5}, TypeError,
     "LlmSettings.model: expected a string, got an integer"),
    (LlmSettings, {**_LLM, "model": "\ud800"}, ValueError,
     "LlmSettings.model: holds a lone surrogate, which UTF-8 cannot encode"),
    (EvalResult, {**EVAL.to_dict(), "sec_pass": 1}, TypeError,
     "EvalResult.sec_pass: expected a boolean, got an integer"),
    (TimingReport, {**REPORT.to_dict(), "endpoints": {}}, TypeError,
     "TimingReport.endpoints: expected an array, got an object"),
    (RunState, {**RECORDS["state"].to_dict(), "baseline": {**METRICS.to_dict(), "wns": "x"}},
     TypeError, "RunState.baseline: PpaMetrics.wns: expected a number, got a string"),
], ids=["bool-for-int", "float-for-int", "integral-float-for-int", "nan", "inf", "minus-inf",
        "int-beyond-floats", "string-for-float", "string-for-tuple", "int-in-tuple",
        "array-for-dict", "int-for-str", "lone-surrogate", "int-for-bool", "object-for-tuple",
        "nested-path"])
def test_a_value_of_another_type_is_an_error_naming_its_path(cls, d, error, message):
    with pytest.raises(error) as exc:
        cls.from_dict(d)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("cls, d, name", [
    (BackendConfig, {"clock_period": 1}, "clock_period"),
    (ScoreWeights, {"alpha": 0}, "alpha"),
    (Stage, {"node": "u1", "op": "add", "delay_ns": 0, "loc": {"file": "d.rtl", "line": 3}},
     "delay_ns"),
], ids=["clock_period", "weight", "stage-delay"])
def test_an_integer_for_a_float_is_kept_as_given(cls, d, name):
    """A stored config keeps its bytes: ``1`` is not rewritten as ``1.0``."""
    record = cls.from_dict(d)
    assert type(getattr(record, name)) is int
    assert canonical_json(record.to_dict()[name]) == str(d[name])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        canonical_json({"wns": value})
