"""External command adapter: templating, extraction, SEC exit codes."""

import json
import tempfile

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.backend import (
    BackendConfig,
    BackendError,
    ExternalBackend,
    ExternalConfig,
    MissingPlaceholder,
    check_equivalence,
    run_external,
    synthesize,
)
from rtlopt.dsl import parse
from rtlopt.timing import Stage, TimingPath, TimingReport

PATTERNS = {"wns": r"wns\s+(-?\d+\.\d+)",
            "tns": r"tns\s+(-?\d+\.\d+)",
            "area": r"area\s+(\d+\.?\d*)"}


def _ext_config(synth="true", sec="", **kw):
    return BackendConfig(kind="external", clock_period=0.1,
                         external=ExternalConfig(
                             synth_command_template=synth,
                             sec_command_template=sec,
                             metric_patterns=dict(PATTERNS), **kw))


def test_run_external_substitutes_and_captures(tmp_path):
    result = run_external("echo top={top} clk={clock_ns}",
                          {"top": "chain", "clock_ns": 0.1, "design_dir": "x"},
                          workdir=str(tmp_path))
    assert result.exit_status == 0
    assert "top=chain clk=0.1" in result.stdout


def test_run_external_missing_placeholder_raises_before_exec():
    with pytest.raises(MissingPlaceholder):
        run_external("run --top {unknown_key}", {"top": "chain"})


def test_run_external_collects_report_files(tmp_path):
    result = run_external("echo 'area 12.5' > ppa.rpt", {"design_dir": "."},
                          workdir=str(tmp_path), report_files=("ppa.rpt",))
    assert result.reports["ppa.rpt"].strip() == "area 12.5"


def test_run_external_removes_its_own_workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    result = run_external("echo 'area 12.5' > ppa.rpt", {},
                          report_files=("ppa.rpt",))
    assert result.reports["ppa.rpt"].strip() == "area 12.5"
    assert list(tmp_path.glob("rtlopt-ext-*")) == []


def test_external_synthesize_extracts_metrics():
    config = _ext_config(
        synth="echo 'wns -0.05'; echo 'tns -0.12'; echo 'area 240'")
    metrics, report = synthesize(parse(CHAIN_ADDER_8), config)
    assert metrics.wns == pytest.approx(-0.05)
    assert metrics.tns == pytest.approx(-0.12)
    assert metrics.area == pytest.approx(240.0)
    assert report.clock_ns == pytest.approx(0.1)
    assert report.endpoints == ()


INTERCHANGE_REPORT = {
    "clock_ns": 0.1,
    "endpoints": [{
        "startpoint": "a", "endpoint": "y", "slack_ns": -0.05,
        "stages": [{"node": "u1", "op": "add", "delay_ns": 0.12,
                    "loc": {"file": "chain.rtl", "line": 3}},
                   {"node": "u2", "op": "add", "delay_ns": 0.03,
                    "loc": {"file": "chain.rtl", "line": 4}}],
    }],
}


def _report_flow(tmp_path, report):
    """An external flow that writes ``report`` as its timing_report.json."""
    src = tmp_path / "report.json"
    src.write_text(json.dumps(report))
    return _ext_config(
        synth=f"cp {src} timing_report.json; "
              "echo 'wns -0.05'; echo 'tns -0.05'; echo 'area 240'",
        report_files=("timing_report.json",))


def test_external_synthesize_reads_interchange_timing_report(tmp_path):
    _, report = synthesize(parse(CHAIN_ADDER_8), _report_flow(tmp_path, INTERCHANGE_REPORT))
    assert report == TimingReport(0.1, (TimingPath("a", "y", -0.05, (
        Stage("u1", "add", 0.12, "chain.rtl", 3),
        Stage("u2", "add", 0.03, "chain.rtl", 4))),))
    assert report.to_dict() == INTERCHANGE_REPORT


@pytest.mark.parametrize("report", [
    {**INTERCHANGE_REPORT, "wns": -0.05},
    {"clock_ns": 0.1},
    {"clock_ns": 0.1, "endpoints": [{"startpoint": "a"}]},
], ids=["unknown-key", "missing-endpoints", "missing-path-keys"])
def test_external_synthesize_rejects_report_off_schema(tmp_path, report):
    with pytest.raises(BackendError, match="interchange schema"):
        synthesize(parse(CHAIN_ADDER_8), _report_flow(tmp_path, report))


def test_external_synthesize_nonzero_exit_raises():
    with pytest.raises(BackendError):
        synthesize(parse(CHAIN_ADDER_8), _ext_config(synth="false"))


def test_external_synthesize_pattern_miss_raises():
    with pytest.raises(BackendError, match="matched nothing"):
        synthesize(parse(CHAIN_ADDER_8), _ext_config(synth="echo nothing"))


def test_external_synthesize_missing_pattern_key():
    config = BackendConfig(kind="external", external=ExternalConfig(
        synth_command_template="echo 'wns -0.1'", metric_patterns={"wns": r"wns (-?\d+\.\d+)"}))
    with pytest.raises(BackendError, match="no extraction pattern"):
        ExternalBackend(config).synthesize(parse(CHAIN_ADDER_8))


def test_external_sec_exit_code_decides():
    golden = parse(CHAIN_ADDER_8)
    candidate = parse(CHAIN_ADDER_8.replace("((a + b) + c) + d",
                                            "(a + b) + (c + d)"))
    passing = check_equivalence(golden, candidate, _ext_config(sec="true"))
    assert passing.passed and passing.mode == "external"
    failing = check_equivalence(golden, candidate, _ext_config(sec="false"))
    assert not failing.passed


def test_external_sec_sees_both_design_files():
    golden = parse(CHAIN_ADDER_8)
    config = _ext_config(sec="test -f {design_dir}/golden.rtl "
                             "-a -f {design_dir}/candidate.rtl")
    assert check_equivalence(golden, golden, config).passed


def test_external_sec_timeout_fails_conservatively():
    golden = parse(CHAIN_ADDER_8)
    config = BackendConfig(kind="external", clock_period=0.1,
                           external=ExternalConfig(
                               synth_command_template="true",
                               sec_command_template="sleep 5",
                               timeout_s=0.2))
    verdict = check_equivalence(golden, golden, config)
    assert not verdict.passed


def test_external_sec_unconfigured_raises():
    golden = parse(CHAIN_ADDER_8)
    with pytest.raises(BackendError):
        check_equivalence(golden, golden, _ext_config(sec=""))


def test_external_default_clock_is_tighter():
    from rtlopt.backend import DEFAULT_CLOCK_NS, EXTERNAL_DEFAULT_CLOCK_NS
    assert DEFAULT_CLOCK_NS == 0.5
    assert EXTERNAL_DEFAULT_CLOCK_NS == 0.1
    assert BackendConfig().clock_period == 0.5
    external = BackendConfig(kind="external",
                             external=ExternalConfig(synth_command_template="true"))
    assert external.clock_period == 0.1
