"""Closed-loop orchestrator: end-to-end runs, determinism, bookkeeping."""

import json
import os

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.dsl import parse
from rtlopt.orchestrator import (
    BaselineEvaluationError,
    RunConfig,
    evaluate_group,
    run,
)
from rtlopt.proposer import Proposal, ProposerConfig
from rtlopt.skills import SkillLibrary, import_library
from rtlopt.trajectory import RunState, TrajectoryStore, canonical_json


def _config(iterations=3, candidates=5, **kw):
    return RunConfig(iterations=iterations, candidates=candidates, **kw)


def test_closed_loop_reaches_balanced_tree(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(), str(tmp_path))
    assert result.best_metrics.wns >= -0.02 - 1e-9
    assert result.best_metrics.area == pytest.approx(96.0)
    assert result.improvement["wns_pct"] < 0      # negative = improved
    assert result.sec_pass_rate == 1.0
    # best-so-far is monotone non-increasing after the 0.0 baseline entry
    series = result.best_so_far
    assert series[0] == 0.0
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
    assert result.convergence_steps >= 1


def test_run_artifacts_on_disk(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=2), str(tmp_path))
    assert os.path.isdir(result.run_dir)
    state = json.loads(open(os.path.join(result.run_dir, "state.json")).read())
    assert state["run_id"] == "chain-seed0"
    assert len(state["iterations"]) == 2
    assert os.path.isdir(os.path.join(result.run_dir, "designs"))
    lib = import_library(os.path.join(result.run_dir, "skills.json"))
    assert lib.entries
    saved = json.loads(open(os.path.join(result.run_dir, "result.json")).read())
    assert saved["best_metrics"]["wns"] == result.best_metrics.wns


def test_byte_identical_across_seeded_runs(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    run(design, _config(), str(tmp_path / "one"))
    run(design, _config(), str(tmp_path / "two"))
    for name in ("state.json", "skills.json"):
        a = open(str(tmp_path / "one" / "chain-seed0" / name), "rb").read()
        b = open(str(tmp_path / "two" / "chain-seed0" / name), "rb").read()
        assert a == b


def test_recomputed_metrics_match_result(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    config = _config()
    result = run(design, config, str(tmp_path))
    store = TrajectoryStore.load(result.run_dir)
    from rtlopt.trajectory import convergence_steps, sec_pass_rate
    assert sec_pass_rate(store.state) == result.sec_pass_rate
    assert convergence_steps(store.state,
                             config.convergence_epsilon) == result.convergence_steps


def test_skill_preload_converges_no_slower(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    cold = run(design, _config(), str(tmp_path / "cold"))
    library = import_library(os.path.join(cold.run_dir, "skills.json"))
    warm = run(design, _config(), str(tmp_path / "warm"), library=library,
               run_id="chain-warm")
    assert warm.convergence_steps <= cold.convergence_steps
    assert warm.best_metrics.wns >= cold.best_metrics.wns - 1e-9


def test_baseline_failure_aborts(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    from rtlopt.backend import BackendConfig, ExternalConfig
    bad_backend = BackendConfig(kind="external", external=ExternalConfig(
        synth_command_template="false", metric_patterns={}))
    with pytest.raises(BaselineEvaluationError):
        run(design, _config(backend=bad_backend), str(tmp_path))


def test_run_config_round_trips_through_dict():
    config = _config(iterations=2, seed=3, proposer=ProposerConfig(n_candidates=3))
    assert RunConfig.from_dict(config.to_dict()) == config


def test_evaluate_group_isolates_failures(bcfg):
    design = parse(CHAIN_ADDER_8)
    mismatched = parse(CHAIN_ADDER_8.replace("module chain", "module chain")
                       .replace("output [7:0] y", "output [7:0] z")
                       .replace("assign y", "assign z"))
    proposals = [
        Proposal(design, "rule", "tree-rebalance", None),
        Proposal(mismatched, "rule", "tree-rebalance", None),
        Proposal(None, "skipped", None, None),
    ]
    results = evaluate_group(proposals, design, bcfg)
    assert results[0].sec_pass
    assert isinstance(results[1], Exception)
    assert results[2] is None


def test_run_respects_iteration_budget(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=1), str(tmp_path))
    state = RunState.from_dict(json.loads(
        open(os.path.join(result.run_dir, "state.json")).read()))
    assert len(state.iterations) == 1
    assert state.status == "budget-exhausted"


def test_state_reserialization_byte_identical(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=2), str(tmp_path))
    raw = open(os.path.join(result.run_dir, "state.json")).read()
    state = RunState.from_dict(json.loads(raw))
    assert canonical_json(state.to_dict()) == raw
