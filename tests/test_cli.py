"""CLI surface: subcommands, config handling, exit codes, report output."""

import argparse
import csv
import io
import json
import os
import re
import shutil
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import rtlopt.backend
from corpus import CHAIN_ADDER_8
from rtlopt import cli
from rtlopt import skills as sk
from rtlopt.backend import BackendConfig, synthesize
from rtlopt.cli import ConfigError, load_config, main
from rtlopt.dsl import parse
from rtlopt.orchestrator import RunConfig
from rtlopt.trajectory import canonical_json


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "chain.rtl"
    path.write_text(CHAIN_ADDER_8)
    return str(path)


PATTERNS = {"wns": r"wns (\S+)", "tns": r"tns (\S+)", "area": r"area (\S+)"}


def _external(**external):
    """A config payload for the external backend."""
    return {"backend": {"external": {"metric_patterns": PATTERNS, **external}}}


def _llm(**llm):
    """A config payload with an LLM endpoint."""
    return {"proposer": {"llm": {"base_url": "http://127.0.0.1:9", "model": "m", **llm}}}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_defaults_and_record_shape(tmp_path):
    """A config file is a RunConfig record: what a run stores as its config."""
    assert load_config(None) == RunConfig()
    assert load_config(_write(tmp_path, "empty.json", {})) == RunConfig()
    payload = {
        "iterations": 2, "candidates": 3, "top_k_paths": 2, "seed": 7,
        "backend": {"clock_period": 0.6},
        "weights": {"alpha": 0.4, "beta": 0.4, "gamma": 0.2,
                    "area_penalty": 0.5, "area_penalty_threshold": 0.1},
        "proposer": {"n_candidates": 3, "exploration_fraction": 0.5},
    }
    config = load_config(_write(tmp_path, "c.json", payload))
    assert config.iterations == 2 and config.seed == 7
    assert config.backend.clock_period == 0.6
    assert config.weights.alpha == 0.4
    assert config.proposer.exploration_fraction == 0.5
    assert config.to_dict() == payload


# A valid config that gives every section, so each known key has a path.
_FUZZ_BASE = RunConfig.from_dict({**_external(synth_command_template="true"),
                                  **_llm()}).to_dict()


def _key_paths(d, prefix=()):
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, -10**400, 1e308, 2**63, float("nan"), "\ud800"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(sorted(_key_paths(_FUZZ_BASE))), value=_JSON)
def test_load_config_accepts_or_rejects_any_value_at_any_key(tmp_path, path, value):
    """Any JSON value at any key either loads as a config that can be stored,
    or is a ConfigError; nothing else escapes."""
    payload = json.loads(json.dumps(_FUZZ_BASE))
    section = payload
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    try:
        config = load_config(_write(tmp_path, "fuzz.json", payload))
    except ConfigError:
        return
    canonical_json(config.to_dict()).encode()


def test_load_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "bad.json", {"nonsense": {}})
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("payload, key", [
    ({"early_stop": True}, "early_stop"),
    ({"convergence_epsilon": 0.01}, "convergence_epsilon"),
    ({"proposer": {"n_slots": True}}, "n_slots"),
    ({"backend": {"clock": True}}, "clock"),
    ({"backend": {"kind": True}}, "kind"),
], ids=["early_stop", "convergence_epsilon", "proposer-n_slots", "backend-clock",
        "backend-kind"])
def test_optimize_unknown_key_exit_1(design_file, tmp_path, capsys, payload, key):
    config = _write(tmp_path, "bad.json", payload)
    code = main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert key in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "runs"))


@pytest.mark.parametrize("payload, unknown", [
    ({"run": {"iterations": 2}}, "['run']"),
    ({"scoring": {"alpha": 0.4}, "backend": {}}, "['scoring']"),
    ({"run": {}, "scoring": {}, "proposer": {}}, "['run', 'scoring']"),
], ids=["run", "scoring", "both"])
def test_sectioned_config_names_its_unknown_keys(design_file, tmp_path, capsys, payload,
                                                 unknown):
    """The former four-section shape is not a RunConfig: the sections that are
    not RunConfig fields are named, on one line."""
    config = _write(tmp_path, "old.json", payload)
    assert main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid config: RunConfig: unknown keys {unknown}\n")
    assert not (tmp_path / "runs").exists()


def test_stored_config_reproduces_the_run(design_file, tmp_path, capsys):
    """A finished run's state.json config, written to a file, is a config that
    gives the same run: its three canonical artifacts are byte-identical."""
    first = _write(tmp_path, "c.json", {"iterations": 3, "seed": 4,
                                        "backend": {"clock_period": 0.3},
                                        "weights": {"gamma": 0.25}})
    assert main(["optimize", "--design", design_file, "--config", first,
                 "--out", str(tmp_path / "one")]) == 0
    one = tmp_path / "one" / "chain-seed4"
    stored = json.loads((one / "state.json").read_text())["config"]
    again = _write(tmp_path, "stored.json", stored)
    assert main(["optimize", "--design", design_file, "--config", again,
                 "--out", str(tmp_path / "two")]) == 0
    for name in ("state.json", "skills.json", "result.json"):
        assert (one / name).read_bytes() == (tmp_path / "two" / "chain-seed4" / name
                                             ).read_bytes(), name


def test_optimize_success_and_summary(design_file, tmp_path, capsys):
    config = _write(tmp_path, "c.json", {"iterations": 2})
    code = main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert code == 0
    assert "WNS" in out and "TNS" in out and "area" in out
    assert "(-91.3%)" in out          # -0.23 -> -0.02 under the builtin model
    assert "(0.0%)" in out            # area unchanged
    assert os.path.isdir(str(tmp_path / "runs" / "chain-seed0"))


def test_optimize_with_nothing_evaluated_has_no_pass_rate(tmp_path, capsys):
    """No catalog strategy applies to a bare wire, so every slot is skipped:
    a pass rate over no candidate is not 0.00."""
    path = tmp_path / "wire.rtl"
    path.write_text("module wire1(input [3:0] a, output [3:0] y);\n  assign y = a;\nendmodule\n")
    code = main(["optimize", "--design", str(path), "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert code == 0
    assert "SEC pass rate: n/a (0 evaluated)" in out
    with open(tmp_path / "runs" / "wire1-seed0" / "result.json") as fh:
        assert json.load(fh)["sec_pass_rate"] == 0.0  # the schema keeps a number


@pytest.mark.parametrize("payload", [{"iterations": 0}, {"top_k_paths": 0}],
                         ids=["iterations", "top_k_paths"])
def test_optimize_config_error_exit_1(design_file, tmp_path, capsys, payload):
    config = _write(tmp_path, "bad.json", payload)
    code = main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("payload", [
    5, None, {"backend": None}, {"proposer": None}, {"weights": None}, {"weights": []},
    {"seed": None}, {"backend": {"external": 5}},
    {"backend": {"clock_period": float("nan")}}, {"iterations": 1.5},
    {"iterations": float("inf")}, {"iterations": True}, _llm(model=5),
    {"backend": {"clock_period": 10**400}},
    _external(synth_command_template="true", report_files="timing_report.json"),
    _external(synth_command_template="x {design_dir:{0}}"),
], ids=["number", "null", "backend-null", "proposer-null", "weights-null", "weights-list",
        "field-null", "external-number", "nan-clock", "float-iterations", "inf-iterations",
        "bool-iterations", "int-model", "int-beyond-floats", "string-report-files",
        "nested-placeholder"])
def test_optimize_config_not_objects_is_one_line_error(design_file, tmp_path, capsys,
                                                       payload):
    config = _write(tmp_path, "bad.json", payload)
    code = main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and err.count("\n") == 1
    assert not os.path.exists(str(tmp_path / "runs"))


def test_optimize_unparseable_design_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.rtl"
    bad.write_text("module nope(")
    assert main(["optimize", "--design", str(bad),
                 "--out", str(tmp_path / "runs")]) == 1


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _not_utf8(tmp_path, name="bad.rtl"):
    path = tmp_path / name
    path.write_bytes(CHAIN_ADDER_8.encode().replace(b"+ d;", b"+ d; // \xff"))
    return str(path)


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_config_not_utf8_exit_1(design_file, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"iterations": 2, "seed": "\xff"}')
    assert main(["optimize", "--design", design_file, "--config", str(config),
                 "--out", str(tmp_path / "runs")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["optimize", "eval"])
def test_design_not_utf8_exit_1(tmp_path, capsys, command):
    argv = [command, "--design", _not_utf8(tmp_path)]
    if command == "optimize":
        argv += ["--out", str(tmp_path / "runs")]
    assert main(argv) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "runs").exists()


GOLDEN_FILES = {
    "missing": lambda tmp_path: str(tmp_path / "nowhere.rtl"),
    "malformed": lambda tmp_path: _text_file(tmp_path, "nope.rtl", "module nope("),
    "not-utf8": lambda tmp_path: _not_utf8(tmp_path, "golden.rtl"),
}


@pytest.mark.parametrize("make_golden", GOLDEN_FILES.values(), ids=GOLDEN_FILES.keys())
def test_eval_unreadable_golden_exit_1(design_file, tmp_path, capsys, make_golden):
    """--golden is read with --design: a file that cannot be read, decoded or
    parsed is a usage error, not a failed evaluation."""
    assert main(["eval", "--design", design_file, "--golden", make_golden(tmp_path)]) == 1
    _assert_one_error_line(capsys)


def test_optimize_baseline_failure_exit_2(design_file, tmp_path, capsys):
    config = _write(tmp_path, "ext.json", _external(synth_command_template="false"))
    code = main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "baseline" in capsys.readouterr().err


def _assert_rejected_at_load(command, design_file, tmp_path, capsys, payload):
    """``command`` exits 1 with one ``error: invalid config`` line, before any run."""
    config = _write(tmp_path, "bad.json", payload)
    argv = [command, "--design", design_file, "--config", config]
    if command == "optimize":
        argv += ["--out", str(tmp_path / "runs")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["eval", "optimize"])
@pytest.mark.parametrize("payload", [
    _llm(base_url="localhost:8000"), _llm(base_url="ftp://127.0.0.1/v1"),
    _llm(base_url="http:///v1"), _llm(timeout_s=0), _llm(max_retries=-1),
], ids=["url-without-scheme", "url-not-http", "url-without-host", "zero-timeout",
        "negative-retries"])
def test_llm_misconfiguration_exit_1_at_load(design_file, tmp_path, capsys, command,
                                             payload):
    _assert_rejected_at_load(command, design_file, tmp_path, capsys, payload)


@pytest.mark.parametrize("command", ["eval", "optimize"])
@pytest.mark.parametrize("payload", [
    {"backend": {"external": {
        "synth_command_template": "true", "metric_patterns": {"wns": "wns (\\S+)"}}}},
    _external(synth_command_template="synth {nope}"),
    _external(synth_command_template="true", timeout_s=0),
    _external(synth_command_template="true", timeout_s=-5),
    _external(synth_command_template="true", metric_patterns={**PATTERNS, "wns": 5}),
], ids=["missing-pattern", "unknown-placeholder", "zero-timeout", "negative-timeout",
        "pattern-not-a-string"])
def test_external_misconfiguration_exit_1_at_load(design_file, tmp_path, capsys,
                                                  command, payload):
    _assert_rejected_at_load(command, design_file, tmp_path, capsys, payload)


@pytest.mark.parametrize("patterns, unknown", [
    ({**PATTERNS, "power": 5}, "['power']"),
    ({"wns": PATTERNS["wns"], "tns": PATTERNS["tns"], "aera": PATTERNS["area"]},
     "['aera']"),
], ids=["extra", "misspelt"])
def test_external_metric_pattern_keys_are_exactly_wns_tns_area(design_file, tmp_path,
                                                               capsys, patterns, unknown):
    """An extra or misspelt metric key is an unknown key, as anywhere in a
    config: exit 1 before any run, and nothing stored."""
    config = _write(tmp_path, "ext.json", _external(synth_command_template="true",
                                                    metric_patterns=patterns))
    assert main(["optimize", "--design", design_file, "--config", config,
                 "--out", str(tmp_path / "runs")]) == 1
    assert capsys.readouterr().err == (
        "error: invalid config: RunConfig.backend: BackendConfig.external: "
        f"external.metric_patterns: unknown keys {unknown}\n")
    assert not (tmp_path / "runs").exists()


def test_eval_synthesis_timeout_exit_2(design_file, tmp_path, capsys):
    config = _write(tmp_path, "ext.json",
                    _external(synth_command_template="sleep 5", timeout_s=0.2))
    assert main(["eval", "--design", design_file, "--config", config]) == 2
    err = capsys.readouterr().err
    assert err == "error: synthesis timed out after 0.2 s\n"


def test_eval_tool_output_not_utf8_still_yields_metrics(design_file, tmp_path, capsys):
    config = _write(tmp_path, "ext.json", _external(
        synth_command_template="printf 'wns -0.05\\n\\377\\ntns -0.12\\n'; "
                               "printf 'gate \\377\\narea 240\\n' > ppa.rpt",
        report_files=["ppa.rpt"]))
    assert main(["eval", "--design", design_file, "--config", config]) == 0
    assert json.loads(capsys.readouterr().out) == {"wns": -0.05, "tns": -0.12,
                                                   "area": 240.0}


def test_eval_sec_timeout_is_a_failed_verdict(design_file, tmp_path, capsys):
    config = _write(tmp_path, "ext.json", _external(
        synth_command_template="echo 'wns -0.05 tns -0.12 area 240'",
        sec_command_template="sleep 5", timeout_s=0.2))
    assert main(["eval", "--design", design_file, "--golden", design_file,
                 "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sec_pass"] is False and payload["sec_mode"] == "external"


def test_eval_outputs_metrics_json(design_file, capsys):
    assert main(["eval", "--design", design_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wns"] == pytest.approx(-0.23)
    assert "sec_pass" not in payload


def _deep_chain(tmp_path, depth):
    deep = tmp_path / "deep.rtl"
    deep.write_text("module deep(input [7:0] a, input [7:0] b, output [7:0] y);\n"
                    f"  assign y = {'(' * depth}a{' + b)' * depth};\nendmodule\n")
    return str(deep)


@pytest.mark.parametrize("depth", [120, 1000])
def test_eval_deeply_nested_design(tmp_path, capsys, depth):
    assert main(["eval", "--design", _deep_chain(tmp_path, depth)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wns"] < 0 and payload["area"] > 0


def test_unmapped_exception_is_one_line_internal_error(design_file, tmp_path, capsys,
                                                       monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("loop broke\n  at step 3")

    monkeypatch.setattr(cli, "run", fail)
    assert main(["optimize", "--design", design_file,
                 "--out", str(tmp_path / "runs")]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == "error: internal: RuntimeError: loop broke at step 3\n"


def test_optimize_deep_chain_finishes(tmp_path, capsys):
    assert main(["optimize", "--design", _deep_chain(tmp_path, 1000),
                 "--out", str(tmp_path / "runs")]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_eval_with_golden_reports_sec(design_file, tmp_path, capsys):
    variant = tmp_path / "v.rtl"
    variant.write_text(CHAIN_ADDER_8.replace("((a + b) + c) + d",
                                             "(a + b) + (c + d)"))
    assert main(["eval", "--design", str(variant),
                 "--golden", design_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sec_pass"] is True
    assert payload["sec_mode"] == "symbolic"


def test_eval_port_mismatch_exit_2(design_file, tmp_path, capsys):
    other = tmp_path / "o.rtl"
    other.write_text(CHAIN_ADDER_8.replace("output [7:0] y", "output [7:0] z")
                     .replace("assign y", "assign z"))
    assert main(["eval", "--design", str(other), "--golden", design_file]) == 2
    assert "mismatch" in capsys.readouterr().err


# `show` on the default chain run, one path line per evaluated rule candidate.
SHOW_FIRST_ITERATIONS = """\
run chain-seed0 (chain, budget-exhausted)
iteration 0: parent 8c1d6bbb09b521ea, selected t0c0
  t0c0 [ok] rule sec=pass score=-0.7761 adv=-1.000
    path a->y wide-arithmetic -> tree-rebalance (sec-pass)
  t0c1 [ok] rule sec=pass score=+0.0000 adv=+1.000
    path a->y wide-arithmetic -> decomposition (sec-pass)
  t0c2 [skipped] skipped sec=fail
  t0c3 [skipped] skipped sec=fail
  t0c4 [skipped] skipped sec=fail
iteration 1: parent 4c3bc492f14d4b3a, selected t1c0
  t1c0 [ok] skill-guided sec=pass score=-0.7761 adv=+0.000
    path a->y wide-arithmetic -> decomposition (sec-pass)
  t1c1 [skipped] skipped sec=fail
  t1c2 [skipped] skipped sec=fail
  t1c3 [skipped] skipped sec=fail
  t1c4 [skipped] skipped sec=fail
iteration 2: parent 8a8588244bbfdd3e, selected t2c0
  t2c0 [ok] rule sec=pass score=-0.7761 adv=+0.000
    path a->y wide-arithmetic -> decomposition (sec-pass)
"""


def _finished_run(design_file, tmp_path):
    out = str(tmp_path / "runs")
    assert main(["optimize", "--design", design_file, "--out", out]) == 0
    return os.path.join(out, "chain-seed0")


def test_show_renders_three_layers(design_file, tmp_path, capsys):
    run_dir = _finished_run(design_file, tmp_path)
    capsys.readouterr()
    assert main(["show", "--run", run_dir]) == 0
    out = capsys.readouterr().out
    assert "run chain-seed0" in out
    assert "iteration 0" in out
    assert "t0c0" in out
    assert "->" in out  # diagnosed paths
    assert out.startswith(SHOW_FIRST_ITERATIONS)


def test_show_iteration_out_of_range(design_file, tmp_path, capsys):
    run_dir = _finished_run(design_file, tmp_path)
    assert main(["show", "--run", run_dir, "--iteration", "99"]) == 1


def test_show_missing_run_dir(tmp_path, capsys):
    assert main(["show", "--run", str(tmp_path / "nowhere")]) == 1


# A state.json cut short mid-write, and one written before iterations held
# their diagnosed paths (candidates carried path_events).
with open(os.path.join(os.path.dirname(__file__), "fixtures",
                       "state_with_path_events.json")) as _fh:
    OLD_SCHEMA_STATE = _fh.read()


def _parent_schema_state(design_file, tmp_path) -> str:
    """A fresh run's state.json with what the previous schema also stored put
    back: each eval's timing report, each iteration's group stats and each
    candidate's skill id."""
    with open(os.path.join(_finished_run(design_file, tmp_path), "state.json")) as fh:
        state = json.load(fh)
    report = synthesize(parse(CHAIN_ADDER_8, "chain.rtl"), BackendConfig())[1].to_dict()
    for it in state["iterations"]:
        passers = [c for c in it["candidates"] if c["advantage"] is not None]
        it["group_stats"] = {"mean": 0.0, "stddev": 0.0,
                             "advantages": [c["advantage"] for c in passers]}
        for cand in it["candidates"]:
            cand["skill_id"] = None
            if cand["eval"] is not None:
                cand["eval"]["timing_report"] = report
    return json.dumps(state)


def _untyped_baseline_state(design_file, tmp_path) -> str:
    """A fresh run's state.json whose baseline WNS is a string."""
    with open(os.path.join(_finished_run(design_file, tmp_path), "state.json")) as fh:
        state = json.load(fh)
    state["baseline"]["wns"] = "x"
    return json.dumps(state)


STATE_PAYLOADS = {
    "truncated": lambda design_file, tmp_path: OLD_SCHEMA_STATE[:1000],
    "old-schema": lambda design_file, tmp_path: OLD_SCHEMA_STATE,
    "parent-schema": _parent_schema_state,
    "untyped-baseline": _untyped_baseline_state,
}


@pytest.mark.parametrize("command", ["show", "report"])
@pytest.mark.parametrize("make_payload", STATE_PAYLOADS.values(), ids=STATE_PAYLOADS.keys())
def test_unreadable_state_is_one_line_error(design_file, tmp_path, capsys, command,
                                            make_payload):
    (tmp_path / "state.json").write_text(make_payload(design_file, tmp_path))
    capsys.readouterr()
    assert main([command, "--run", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _stopped_run(design_file, out, monkeypatch, finalized):
    """An optimize run interrupted in the evaluation after its first
    ``finalized`` iterations were finalized, as Ctrl-C would stop it."""
    run_dir = os.path.join(out, "chain-seed0")
    evaluate = rtlopt.backend.evaluate

    def interrupted(*args):
        with open(os.path.join(run_dir, "journal.jsonl")) as fh:
            if len(fh.readlines()) > finalized:  # the head and `finalized` iterations
                raise KeyboardInterrupt
        return evaluate(*args)

    monkeypatch.setattr(rtlopt.backend, "evaluate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["optimize", "--design", design_file, "--out", out])
    monkeypatch.setattr(rtlopt.backend, "evaluate", evaluate)
    return run_dir


def _output(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def test_stopped_run_is_read_from_its_journal(design_file, tmp_path, capsys, monkeypatch):
    """A run stopped after two finalized iterations leaves its journal and no
    state.json; show and report read those two iterations, as a finished run
    of the same design has them, under the status the journal holds."""
    finished = _output(capsys, ["report", "--run", _finished_run(design_file, tmp_path)])
    run_dir = _stopped_run(design_file, str(tmp_path / "stopped"), monkeypatch, 2)
    assert sorted(os.listdir(run_dir)) == ["designs", "journal.jsonl"]
    expected = SHOW_FIRST_ITERATIONS.replace("budget-exhausted", "running")
    assert _output(capsys, ["show", "--run", run_dir]) == (
        expected[:expected.index("iteration 2:")])
    report = _output(capsys, ["report", "--run", run_dir])
    assert report.splitlines() == finished.splitlines()[:3]  # header and two rows


def test_torn_last_journal_line_reads_as_one_fewer_iteration(design_file, tmp_path, capsys,
                                                             monkeypatch):
    """An append cut short leaves a last line with no newline, which is dropped."""
    run_dir = _stopped_run(design_file, str(tmp_path / "runs"), monkeypatch, 2)
    journal = os.path.join(run_dir, "journal.jsonl")
    with open(journal, "rb") as fh:
        data = fh.read()
    with open(journal, "wb") as fh:
        fh.write(data[:-10])
    assert len(_output(capsys, ["report", "--run", run_dir]).splitlines()) == 1 + 1
    shown = _output(capsys, ["show", "--run", run_dir])
    assert "iteration 0:" in shown and "iteration 1:" not in shown


@pytest.mark.parametrize("number, line", [
    (2, b"garbage"), (2, b'{"index": 0}'), (1, b"garbage"), (1, b"[]"), (None, b""),
], ids=["garbage-middle", "middle-not-an-iteration", "garbage-head", "head-not-a-run",
        "empty"])
@pytest.mark.parametrize("command", ["show", "report"])
def test_bad_journal_line_is_one_line_error(design_file, tmp_path, capsys, monkeypatch,
                                            command, number, line):
    run_dir = _stopped_run(design_file, str(tmp_path / "runs"), monkeypatch, 2)
    journal = os.path.join(run_dir, "journal.jsonl")
    with open(journal, "rb") as fh:
        lines = fh.read().split(b"\n")
    if number is None:
        lines = [line]
    else:
        lines[number - 1] = line
    with open(journal, "wb") as fh:
        fh.write(b"\n".join(lines))
    capsys.readouterr()
    assert main([command, "--run", run_dir]) == 1
    _assert_one_error_line(capsys)


def test_report_csv_columns(design_file, tmp_path, capsys):
    run_dir = _finished_run(design_file, tmp_path)
    capsys.readouterr()
    assert main(["report", "--run", run_dir]) == 0
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert reader.fieldnames == ["t", "best_wns", "best_tns", "best_area",
                                 "best_score", "sec_pass_rate_cum"]
    rows = list(reader)
    assert len(rows) == 10  # default iteration budget
    assert float(rows[-1]["best_wns"]) == pytest.approx(-0.02)
    assert float(rows[-1]["sec_pass_rate_cum"]) == 1.0


def test_report_json_format(design_file, tmp_path, capsys):
    run_dir = _finished_run(design_file, tmp_path)
    capsys.readouterr()
    assert main(["report", "--run", run_dir, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["t"] == 0


def test_skills_roundtrip_via_cli(design_file, tmp_path, capsys):
    library = os.path.join(_finished_run(design_file, tmp_path), "skills.json")
    out = str(tmp_path / "other")
    config = _write(tmp_path, "c.json", {"backend": {"clock_period": 0.3}})
    assert main(["optimize", "--design", design_file, "--config", config,
                 "--out", out]) == 0
    other = os.path.join(out, "chain-seed0", "skills.json")
    capsys.readouterr()
    assert main(["skills", "list", "--library", library]) == 0
    assert "wide-arithmetic" in capsys.readouterr().out
    merged = str(tmp_path / "merged.json")
    assert main(["skills", "merge", other,
                 "--library", library, "--output", merged]) == 0
    assert main(["skills", "import", "--library", merged]) == 0
    with open(merged) as fh:
        assert len(json.load(fh)["distilled_iterations"]) == 20


def test_skills_self_merge_exit_1(design_file, tmp_path, capsys):
    """Merging a library with itself would count every iteration twice."""
    library = os.path.join(_finished_run(design_file, tmp_path), "skills.json")
    merged = tmp_path / "merged.json"
    capsys.readouterr()
    assert main(["skills", "merge", library,
                 "--library", library, "--output", str(merged)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch("error: libraries share distilled iteration [0-9a-f]{16}; "
                        "merging would count its evidence twice\n", err)
    assert not merged.exists()


def test_skills_merge_refuses_runs_that_differ_only_in_seed(design_file, tmp_path,
                                                           capsys):
    """The seed steers nothing, so two seeds distill the same iterations."""
    library = os.path.join(_finished_run(design_file, tmp_path), "skills.json")
    out = str(tmp_path / "seed1")
    assert main(["optimize", "--design", design_file, "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    assert main(["skills", "merge", os.path.join(out, "chain-seed1", "skills.json"),
                 "--library", library, "--output", str(tmp_path / "m.json")]) == 1
    assert "share distilled iteration" in capsys.readouterr().err


CHAIN_ADDER_16 = CHAIN_ADDER_8.replace("[7:0]", "[15:0]")


def test_skills_merge_runs_of_one_design_under_two_clocks(tmp_path, capsys):
    """Runs of one design and seed under clock 0.5 and 0.3 hold different
    evidence, so their libraries merge."""
    design = _text_file(tmp_path, "chain.rtl", CHAIN_ADDER_16)
    libraries = []
    for clock in (0.5, 0.3):
        config = _write(tmp_path, f"clock{clock}.json", {"backend": {"clock_period": clock}})
        out = tmp_path / f"clock{clock}"
        assert main(["optimize", "--design", design, "--config", config,
                     "--out", str(out)]) == 0
        libraries.append(str(out / "chain-seed0" / "skills.json"))
    merged = tmp_path / "merged.json"
    assert main(["skills", "merge", libraries[1], "--library", libraries[0],
                 "--output", str(merged)]) == 0
    keys = [json.loads(open(p).read())["distilled_iterations"] for p in libraries]
    assert json.loads(merged.read_text())["distilled_iterations"] == sorted(sum(keys, []))


def test_warm_run_on_the_same_design_learns(design_file, tmp_path, capsys):
    """A run that starts from a library distilled on the same design distills
    its own iterations into it."""
    library = os.path.join(_finished_run(design_file, tmp_path), "skills.json")
    warm = tmp_path / "warm"
    assert main(["optimize", "--design", design_file, "--skills", library,
                 "--out", str(warm)]) == 0
    with open(library) as fh:
        before = json.load(fh)
    after = json.loads((warm / "chain-seed0" / "skills.json").read_text())
    assert set(before["distilled_iterations"]) < set(after["distilled_iterations"])
    occurrences = [sum(e["occurrence_count"] for e in lib["entries"])
                   for lib in (before, after)]
    assert occurrences[1] > occurrences[0]


@pytest.mark.parametrize("action, missing", [
    ("export", "--output"), ("merge", "--output"),
    ("export", "--library"), ("import", "--library"), ("merge", "--library"),
])
def test_skills_write_needs_output(tmp_path, capsys, action, missing):
    library = _write(tmp_path, "lib.json", {"version": sk.SCHEMA_VERSION, "entries": []})
    argv = ["skills", action] + ([library] if action == "merge" else [])
    given = {"--library": library, "--output": str(tmp_path / "out.json")}
    del given[missing]
    assert main(argv + [arg for pair in given.items() for arg in pair]) == 1
    assert capsys.readouterr().err == f"error: skills {action} needs {missing}\n"
    assert not (tmp_path / "out.json").exists()


def test_skills_import_invalid_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99, \"entries\": []}")
    assert main(["skills", "import", "--library", str(bad)]) == 1


_ENTRY = {"pattern": "wide-arithmetic", "strategy": "tree-rebalance"}
_BOGUS_ENTRY = {"version": sk.SCHEMA_VERSION, "entries": [{**_ENTRY, "bogus": 1}]}
_STORED_TIER = {"version": sk.SCHEMA_VERSION, "entries": [{**_ENTRY, "tier": "bogus"}]}
_UNTYPED_EVIDENCE = {"version": sk.SCHEMA_VERSION, "entries": [
    {**_ENTRY, "occurrence_count": 1.5, "mean_advantage": float("nan")}]}


@pytest.mark.parametrize("command", ["skills", "optimize"])
@pytest.mark.parametrize("payload", [_BOGUS_ENTRY, _STORED_TIER, _UNTYPED_EVIDENCE, 5, None],
                         ids=["unknown-key", "stored-tier", "untyped-evidence",
                              "not-an-object", "missing"])
def test_malformed_skill_library_is_one_line_error(design_file, tmp_path, capsys,
                                                   command, payload):
    library = tmp_path / "lib.json"
    if payload is not None:
        library.write_text(json.dumps(payload))
    argv = (["skills", "list", "--library", str(library)] if command == "skills" else
            ["optimize", "--design", design_file, "--skills", str(library),
             "--out", str(tmp_path / "runs")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


# Paths in the fuzzer's working directory (see _fuzz_places); none leads out
# of it. Half the time a path value is one that works for its argument, by
# the argument's name.
_PLACES = ["chain.rtl", "nope.rtl", "c.json", "bad.json", "done", "done/skills.json",
           "stopped", "absent"]
_WORKING = {"design": ["chain.rtl"], "golden": ["chain.rtl"], "config": ["c.json"],
            "skills": ["done/skills.json"], "library": ["done/skills.json"],
            "extra": ["done/skills.json"], "run": ["done", "stopped"], "out": ["runs"],
            "output": ["out.json"]}
_WORDS = st.text(alphabet="ab-_ \n\té1", max_size=4)


def _grammar() -> dict[str, tuple[dict, list]]:
    """Per subcommand, from the parser itself: each option string but help
    (which would end every case) and each positional, with the values its
    declaration fits: its choices, an integer for an ``int``, else a place."""

    def fits(action):
        if action.choices:
            return st.sampled_from(sorted(action.choices))
        if action.type is int:
            return st.sampled_from(["0", "1", "-1", "99", "1.5"])
        return st.sampled_from(_WORKING.get(action.dest, _PLACES)) | st.sampled_from(_PLACES)

    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: ({o: fits(a) for a in p._actions for o in a.option_strings
                    if not isinstance(a, argparse._HelpAction)},
                   [fits(a) for a in p._actions if not a.option_strings])
            for name, p in sub.choices.items()}


_GRAMMAR = _grammar()


@st.composite
def _argv(draw):
    """A subcommand, then in any order some of its options and positionals.
    One value in eight is any short word instead of one that fits, and one
    option in eight goes without its value."""
    command = draw(st.sampled_from([*_GRAMMAR, "bogus"]))
    options, positionals = _GRAMMAR.get(command, ({}, []))

    def value(fitting):
        return draw(_WORDS if draw(st.integers(0, 7)) == 0 else fitting)

    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True)) if options else []
    pieces = [[option] + ([value(options[option])] if draw(st.integers(0, 7)) else [])
              for option in chosen]
    pieces += [[value(fitting)] for fitting in positionals
               for _ in range(draw(st.integers(0, 2)))]
    return [command] + [token for piece in draw(st.permutations(pieces)) for token in piece]


@pytest.fixture(scope="module")
def _fuzz_places(tmp_path_factory):
    """A template of the fuzzer's working directory: designs and configs that
    read and that do not, a finished run and a stopped one."""
    root = tmp_path_factory.mktemp("places")
    (root / "chain.rtl").write_text(CHAIN_ADDER_8)
    (root / "nope.rtl").write_text("module nope(")
    (root / "c.json").write_text(json.dumps({"iterations": 1}))
    (root / "bad.json").write_text(json.dumps({"iterations": 0}))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        assert main(["optimize", "--design", "chain.rtl", "--config", "c.json",
                     "--out", "runs"]) == 0
        os.rename(os.path.join("runs", "chain-seed0"), "done")
        os.rename(_stopped_run("chain.rtl", "runs", patch, 1), "stopped")
        os.rmdir("runs")
    return root


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
# These are sure to reach each command's work.
@example(argv=["optimize", "--design", "chain.rtl", "--config", "c.json", "--seed", "-1"])
@example(argv=["eval", "--golden", "chain.rtl", "--design", "chain.rtl"])
@example(argv=["show", "--run", "stopped", "--iteration", "0"])
@example(argv=["report", "--format", "json", "--run", "done"])
@example(argv=["skills", "merge", "done/skills.json", "--library", "done/skills.json",
               "--output", "m.json"])
def test_any_argv_exits_0_1_or_2(_fuzz_places, capsys, argv):
    """An argv built from the parser's own subcommands, options and choices,
    with values naming files that work and files that do not, exits 0, 1 or
    2, never 3; an error is one stderr line. Each case runs in a fresh copy
    of the working directory, so what one writes no other sees."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(_fuzz_places, work, dirs_exist_ok=True)
        os.chdir(work)
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error leaves through argparse
            code = exc.code
        finally:
            os.chdir(previous)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["skills", "merge", "--library", "a", "--output", "m", "b"],
], ids=["unknown-command", "unrecognized-argument"])
def test_usage_error_is_one_line_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_CONFIG == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
