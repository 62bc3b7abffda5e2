"""External toolchain: the command runner, load-time config checks,
extraction, SEC exit codes and a closed loop through in-repo tools."""

import json
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from corpus import CHAIN_ADDER_8
from fake_eda import PATTERNS as FAKE_EDA_PATTERNS
from rtlopt.backend import (
    SEC_EXTERNAL,
    BackendConfig,
    BackendError,
    ExternalConfig,
    check_equivalence,
    run_external,
    synthesize,
)
from rtlopt.dsl import parse
from rtlopt.orchestrator import RunConfig, run
from rtlopt.proposer import ProposerConfig
from rtlopt.timing import Stage, TimingPath, TimingReport, diagnose, select_critical_paths
from rtlopt.trajectory import RunState

PATTERNS = {"wns": r"wns\s+(-?\d+\.\d+)",
            "tns": r"tns\s+(-?\d+\.\d+)",
            "area": r"area\s+(\d+\.?\d*)"}


def _ext_config(synth="true", sec="", **kw):
    return BackendConfig(clock_period=0.1,
                         external=ExternalConfig(
                             synth_command_template=synth,
                             sec_command_template=sec,
                             metric_patterns=dict(PATTERNS), **kw))


def test_run_external_substitutes_and_captures():
    proc, reports = run_external(
        "echo top={top} clk={clock_ns}; cat {design_dir}/a.rtl; echo oops >&2",
        "chain", _ext_config(), {"a.rtl": "module a\n"})
    assert proc.returncode == 0
    assert proc.stdout == "top=chain clk=0.1\nmodule a\n"
    assert proc.stderr == "oops\n"
    assert reports == {}


def test_run_external_collects_report_files():
    config = _ext_config(report_files=("ppa.rpt", "{top}.rpt", "absent.rpt"))
    _, reports = run_external("echo 'area 12.5' > ppa.rpt; echo 'tns 0.0' > {top}.rpt",
                              "chain", config, {})
    assert reports == {"ppa.rpt": "area 12.5\n", "{top}.rpt": "tns 0.0\n"}


def test_run_external_removes_its_directory(tmp_path, monkeypatch):
    """After a normal run and after a timeout."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    files = {"chain.rtl": CHAIN_ADDER_8}
    _, reports = run_external("echo done > out.rpt", "chain",
                              _ext_config(report_files=("out.rpt",)), files)
    assert reports == {"out.rpt": "done\n"}
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(subprocess.TimeoutExpired):
        run_external("sleep 5", "chain", _ext_config(timeout_s=0.2), files)
    assert list(tmp_path.iterdir()) == []


def _running(pid):
    """Whether ``pid`` is a live process; an unreaped zombie is not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_run_external_timeout_kills_what_the_command_started(tmp_path):
    pid_file = tmp_path / "child.pid"
    with pytest.raises(subprocess.TimeoutExpired):
        run_external(f"sleep 30 & echo $! > {shlex.quote(str(pid_file))}; wait", "chain",
                     _ext_config(timeout_s=1.0), {})
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(pid)


@pytest.mark.parametrize("key", sorted(PATTERNS))
def test_missing_metric_pattern_rejected_at_load(key):
    patterns = {k: v for k, v in PATTERNS.items() if k != key}
    with pytest.raises(ValueError, match=f"no pattern for '{key}'"):
        ExternalConfig("true", metric_patterns=patterns)


@pytest.mark.parametrize("pattern", [r"wns (", r"wns \S+"], ids=["invalid", "no-group"])
def test_bad_metric_pattern_rejected_at_load(pattern):
    with pytest.raises(ValueError, match="'wns'"):
        ExternalConfig("true", metric_patterns={**PATTERNS, "wns": pattern})


@pytest.mark.parametrize("field, value, problem", [
    ("synth_command_template", "run --top {unknown_key}", "unknown placeholder"),
    ("sec_command_template", "sec {design_dir} {}", "unknown placeholder"),
    ("report_files", ("{top}.rpt", "{stage}.rpt"), "unknown placeholder"),
    ("synth_command_template", "run {top.upper}", "unknown placeholder"),
    ("synth_command_template", "run {top!z}", "conversion"),
], ids=["synth", "sec-positional", "report-file", "attribute", "bad-conversion"])
def test_bad_template_rejected_at_load(field, value, problem):
    with pytest.raises(ValueError, match=problem):
        ExternalConfig(**{"synth_command_template": "true", "metric_patterns": PATTERNS,
                          field: value})


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
    # Written back, each stage gains its default width and column.
    written = report.to_dict()
    for stage in written["endpoints"][0]["stages"]:
        assert stage.pop("width") == 1 and stage["loc"].pop("col") == 0
    assert written == INTERCHANGE_REPORT


_STAGE = INTERCHANGE_REPORT["endpoints"][0]["stages"][0]


@pytest.mark.parametrize("report", [
    {**INTERCHANGE_REPORT, "wns": -0.05},
    {"clock_ns": 0.1},
    {"clock_ns": 0.1, "endpoints": [{"startpoint": "a"}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0],
                                     "stages": [{**_STAGE, "wdith": 16}]}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0], "stages": [
        {**_STAGE, "loc": {**_STAGE["loc"], "column": 7}}]}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0],
                                     "stages": [{**_STAGE, "width": "16"}]}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0],
                                     "stages": [{**_STAGE, "line": 3}]}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0],
                                     "stages": [{**_STAGE, "loc": "chain.rtl:3"}]}]},
    {"clock_ns": 0.1, "endpoints": [{**INTERCHANGE_REPORT["endpoints"][0], "stages": [5]}]},
    {"clock_ns": float("nan"), "endpoints": []},
], ids=["unknown-key", "missing-endpoints", "missing-path-keys", "unknown-stage-key",
        "unknown-loc-key", "string-width", "line-beside-loc", "loc-not-an-object",
        "stage-not-an-object", "nan-clock"])
def test_external_synthesize_rejects_report_off_schema(tmp_path, report):
    with pytest.raises(BackendError, match="interchange schema"):
        synthesize(parse(CHAIN_ADDER_8), _report_flow(tmp_path, report))


def test_external_synthesize_nonzero_exit_raises():
    config = _ext_config(synth="echo 'no licence' >&2; echo 'giving up' >&2; exit 3")
    with pytest.raises(BackendError, match="^synthesis exited 3: no licence giving up$"):
        synthesize(parse(CHAIN_ADDER_8), config)


def test_external_synthesize_pattern_miss_raises():
    with pytest.raises(BackendError, match="matched nothing"):
        synthesize(parse(CHAIN_ADDER_8), _ext_config(synth="echo nothing"))


def test_external_synthesize_non_number_raises():
    config = BackendConfig(external=ExternalConfig(
        "echo 'wns x'; echo 'tns -0.1'; echo 'area 1'",
        metric_patterns={**PATTERNS, "wns": r"wns (\S+)"}))
    with pytest.raises(BackendError, match="not a number"):
        synthesize(parse(CHAIN_ADDER_8), config)


def test_external_synthesize_timeout_raises():
    config = _ext_config(synth="sleep 5", timeout_s=0.2)
    with pytest.raises(BackendError, match="timed out after 0.2 s"):
        synthesize(parse(CHAIN_ADDER_8), config)


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
    verdict = check_equivalence(golden, golden, _ext_config(sec="sleep 5", timeout_s=0.2))
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
    external = BackendConfig(external=ExternalConfig(
        synth_command_template="true", metric_patterns=PATTERNS))
    assert external.clock_period == 0.1


def _fake_eda_backend() -> BackendConfig:
    """The external backend on ``fake_eda.py``, at the builtin clock."""
    tool = f"{shlex.quote(sys.executable)} {shlex.quote(str(Path(__file__).with_name('fake_eda.py')))}"
    return BackendConfig(clock_period=0.5, external=ExternalConfig(
        synth_command_template=f"{tool} synth {{design_dir}} {{top}} {{clock_ns}}",
        sec_command_template=f"{tool} sec {{design_dir}}",
        metric_patterns=FAKE_EDA_PATTERNS, report_files=("timing_report.json",)))


def test_tool_report_diagnoses_as_the_builtin_backend_does():
    """Stage widths and columns survive the interchange schema, so the tool's
    report of a design is the builtin one, and gives the same root causes
    and regions."""
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    reports = [synthesize(design, backend)[1]
               for backend in (_fake_eda_backend(), BackendConfig(clock_period=0.5))]
    tool, builtin = [[(d.root_cause, d.rtl_region) for d in
                      (diagnose(p, design) for p in select_critical_paths(report, 3))]
                     for report in reports]
    assert tool == builtin and builtin[0][0] == "wide-arithmetic"
    assert reports[0] == reports[1]


def test_closed_loop_through_external_tools(tmp_path):
    """The loop runs end to end on a toolchain of in-repo scripts: every check
    is the tool's verdict, its interchange report maps paths to exact lines,
    and the loop still cuts WNS."""
    backend = _fake_eda_backend()
    config = RunConfig(iterations=2, candidates=2, backend=backend,
                       proposer=ProposerConfig(n_candidates=2))
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), config, str(tmp_path))

    with open(Path(result.run_dir) / "state.json") as fh:
        state = RunState.from_dict(json.load(fh))
    evaluated = [c for it in state.iterations for c in it.candidates if c.eval is not None]
    assert evaluated
    assert all(c.eval.sec_mode == SEC_EXTERNAL for c in evaluated)
    regions = [d.rtl_region for it in state.iterations for d in it.diagnoses]
    assert regions and all(r.confidence == "exact" for r in regions)
    assert result.best_metrics.wns > state.baseline.wns
