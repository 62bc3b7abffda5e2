"""Closed-loop orchestrator: end-to-end runs, determinism, bookkeeping."""

import json
import os
import threading

import pytest

from corpus import CHAIN_ADDER_8, CHAIN_ADDER_8_REG, REWRITE_CORPUS
from rtlopt import orchestrator
from rtlopt.backend import GoldenSec
from rtlopt.dsl import CompiledDesign, parse, print_design
from rtlopt.orchestrator import (
    BaselineEvaluationError,
    RunConfig,
    evaluate_group,
    run,
)
from rtlopt.proposer import Proposal, ProposerConfig
from rtlopt.skills import SkillLibrary, import_library
from rtlopt.trajectory import (
    RunState,
    canonical_json,
    convergence_steps,
    running_best,
)


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
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = RunState.from_dict(json.load(fh))
    assert running_best(state)[-1].pass_rate == result.sec_pass_rate
    assert convergence_steps(state) == result.convergence_steps


def test_skill_preload_converges_no_slower(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    cold = run(design, _config(), str(tmp_path / "cold"))
    library = import_library(os.path.join(cold.run_dir, "skills.json"))
    warm = run(design, _config(), str(tmp_path / "warm"), library=library)
    assert warm.convergence_steps <= cold.convergence_steps
    assert warm.best_metrics.wns >= cold.best_metrics.wns - 1e-9


def test_baseline_failure_aborts(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    from rtlopt.backend import BackendConfig, ExternalConfig
    bad_backend = BackendConfig(external=ExternalConfig(
        synth_command_template="false",
        metric_patterns={"wns": r"wns (\S+)", "tns": r"tns (\S+)", "area": r"area (\S+)"}))
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
    results = evaluate_group(proposals, GoldenSec(design), bcfg)
    result, report = results[0]
    assert result.sec_pass and report.endpoints
    assert isinstance(results[1], Exception)
    assert results[2] is None


def test_evaluate_group_runs_slots_in_order_on_the_loops_thread(bcfg, monkeypatch):
    designs = [parse(CHAIN_ADDER_8) for _ in range(3)]
    calls = []

    def record(candidate, config, sec):
        calls.append((candidate, threading.get_ident()))
        return None

    monkeypatch.setattr(orchestrator.be, "evaluate", record)
    proposals = [Proposal(d, "rule", "tree-rebalance", None) for d in designs]
    evaluate_group(proposals, GoldenSec(designs[0]), bcfg)
    assert [c for c, _ in calls] == designs
    assert all(c is d for (c, _), d in zip(calls, designs))
    assert {t for _, t in calls} == {threading.get_ident()}


@pytest.mark.parametrize("source", [CHAIN_ADDER_8_REG, REWRITE_CORPUS[4]],
                         ids=["bounded", "exhaustive"])
def test_run_simulates_golden_once_per_frame_count(source, tmp_path, monkeypatch):
    """SEC's golden traces are built per run, not per candidate: the golden
    is simulated once on each chunk that the run's checks reach, at each
    frame count, and a second run() on the same design object builds its
    own."""
    design = parse(source, "d.rtl")
    real_run = CompiledDesign.run
    sims = []  # (run index, golden?, frames, input vectors)
    contexts = []

    class RecordedSec(GoldenSec):
        def __init__(self, golden):
            super().__init__(golden)
            contexts.append(self)

    def counting_run(self, input_arrays, frames):
        sims.append((len(runs), self.design is design, frames, input_arrays))
        return real_run(self, input_arrays, frames)

    monkeypatch.setattr(CompiledDesign, "run", counting_run)
    monkeypatch.setattr(orchestrator.be, "GoldenSec", RecordedSec)
    runs = []
    for name in ("one", "two"):
        runs.append(run(design, _config(iterations=2), str(tmp_path / name)))
    assert len(contexts) == 2
    for r, sec in enumerate(contexts):
        golden = [(f, x) for i, is_golden, f, x in sims if i == r and is_golden]
        candidate = [f for i, is_golden, f, _ in sims if i == r and not is_golden]
        built = [(f, x) for f, ref in sec._by_frames.items() for x, _ in ref.chunks]
        assert golden and sorted(set(f for f, _ in golden)) == sorted(set(candidate))
        # One golden simulation per built chunk, on that chunk's own vectors.
        assert sorted((f, id(x)) for f, x in golden) == sorted((f, id(x)) for f, x in built)


def test_all_skipped_group_is_reused_not_proposed_again(tmp_path, monkeypatch):
    """After a group whose every slot was skipped, the parent and the
    library's entries are unchanged, so without an LLM the run reuses that
    group instead of diagnosing and proposing again; every iteration is
    still recorded."""
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    real_propose = orchestrator.propose_group
    calls = []

    def counting_propose(*args, **kwargs):
        calls.append(len(calls))
        return real_propose(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "propose_group", counting_propose)
    result = run(design, _config(iterations=10), str(tmp_path))
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = RunState.from_dict(json.load(fh))
    assert len(state.iterations) == 10
    assert all(it.finalized for it in state.iterations)
    all_skipped = [all(c.status == "skipped" for c in it.candidates)
                   for it in state.iterations]
    first = all_skipped.index(True)
    assert first < 8 and all(all_skipped[first:])
    assert len(calls) == first + 1
    repeated = [(it.parent_id, it.diagnoses, [c.note for c in it.candidates])
                for it in state.iterations[first:]]
    assert all(it == repeated[0] for it in repeated)


def test_run_respects_iteration_budget(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=1), str(tmp_path))
    state = RunState.from_dict(json.loads(
        open(os.path.join(result.run_dir, "state.json")).read()))
    assert len(state.iterations) == 1
    assert state.status == "budget-exhausted"


def test_parents_are_printed_only_when_their_text_is_not_canonical(tmp_path, monkeypatch):
    """A promoted candidate was parsed from printer output, so the proposer
    seeds its duplicate check from the candidate's own text: only the
    original design, written by hand, is printed."""
    from rtlopt import proposer

    printed = []

    def counted(design):
        printed.append(design.name)
        return print_design(design)

    monkeypatch.setattr(proposer, "print_design", counted)
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=3), str(tmp_path))
    assert result.convergence_steps >= 1
    assert printed == ["chain"]


def test_candidates_name_a_diagnosed_path_and_strategy(tmp_path):
    design = parse("""\
module two(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d,
           output [7:0] y, output [7:0] z);
  assign y = ((a + b) + c) + d;
  assign z = ((a - b) - c) - d;
endmodule
""", "two.rtl")
    result = run(design, _config(iterations=2), str(tmp_path))
    state = RunState.from_dict(json.loads(
        open(os.path.join(result.run_dir, "state.json")).read()))
    endpoints = set()
    for it in state.iterations:
        assert len(it.diagnoses) == 2
        for cand in it.candidates:
            if cand.status == "skipped":
                assert cand.strategy is None and cand.path is None
                continue
            assert cand.strategy is not None
            assert 0 <= cand.path < len(it.diagnoses)
            endpoints.add(it.diagnoses[cand.path].path.endpoint)
    assert endpoints == {"y", "z"}


def test_state_reserialization_byte_identical(tmp_path):
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    result = run(design, _config(iterations=2), str(tmp_path))
    raw = open(os.path.join(result.run_dir, "state.json")).read()
    state = RunState.from_dict(json.loads(raw))
    assert canonical_json(state.to_dict()) == raw
