"""Three-layer trajectory store: persistence, validation, derived metrics."""

import json
import os
from dataclasses import replace

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.backend import EvalResult, PpaMetrics
from rtlopt.dsl import parse
from rtlopt.orchestrator import RunConfig, run
from rtlopt.scoring import CandidateScore, group_advantage
from rtlopt.timing import (
    BottleneckDiagnosis,
    RtlRegion,
    TimingPath,
)
from rtlopt.trajectory import (
    STATUS_BUDGET,
    CandidateRecord,
    IterationRecord,
    RunState,
    TrajectoryError,
    TrajectoryStore,
    best_so_far_scores,
    canonical_json,
    convergence_steps,
    design_hash,
    load_state,
    running_best,
)


def _eval(sec_pass=True):
    return EvalResult(PpaMetrics(-0.1, -0.1, 96.0), sec_pass, "exhaustive")


def _cscore(value):
    return CandidateScore(0.0, 0.0, 0.0, 0.0, value)


DIAGNOSIS = BottleneckDiagnosis(
    TimingPath(startpoint="a", endpoint="y", slack_ns=-0.1, stages=()),
    "wide-arithmetic", "wide-arithmetic", RtlRegion("m.rtl", 1, 2, "exact"), "test")


def _cand(cid, value=None, sec_pass=True, status="ok"):
    if status == "skipped":
        return CandidateRecord(candidate_id=cid, design_ref="", proposer_kind="rule",
                               status="skipped")
    return CandidateRecord(candidate_id=cid, design_ref="d" * 16,
                           proposer_kind="rule", eval=_eval(sec_pass),
                           score=_cscore(value if value is not None else 0.0))


def _state_with_bests(bests):
    """One iteration per entry, each containing a single passing candidate."""
    state = RunState(run_id="r", design_name="d", config={})
    for i, value in enumerate(bests):
        it = IterationRecord(index=i, parent_id="p", group_size=1,
                             candidates=[_cand(f"t{i}c0", value)], finalized=True)
        state.iterations.append(it)
    return state


def test_canonical_json_is_stable_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
    assert canonical_json({"x": 0.1 + 0.2}) == '{"x":0.30000000000000004}'


def test_design_hash_content_addressed():
    h = design_hash("module m(input a, output y); assign y = a; endmodule")
    assert len(h) == 16 and int(h, 16) >= 0
    assert h == design_hash("module m(input a, output y); assign y = a; endmodule")
    assert h != design_hash("module m(input a, output y); assign y = ~a; endmodule")


def test_store_lifecycle_and_reload(tmp_path):
    state = RunState(run_id="run1", design_name="top", config={"seed": 0})
    store = TrajectoryStore(str(tmp_path / "run1"), state)
    ref = store.save_design("module m(input a, output y); assign y = a; endmodule")
    assert store.load_design_source(ref).startswith("module m")
    store.persist()

    it = store.begin_iteration(parent_id=ref, group_size=2, diagnoses=[DIAGNOSIS])
    assert it.diagnoses == [DIAGNOSIS]
    cand = _cand("t0c0", -0.4)
    cand.strategy, cand.path = "tree-rebalance", 0
    store.record_candidate(it, cand)
    store.record_candidate(it, _cand("t0c1", -0.1))
    key = store.finalize_iteration(it, group_advantage([-0.4, -0.1]), "t0c0")
    # An iteration's key is the digest of its canonical JSON, its journal line.
    assert key == design_hash(canonical_json(it.to_dict()))
    with open(store.journal_path) as fh:
        assert fh.read() == (canonical_json(replace(state, iterations=[]).to_dict()) + "\n"
                             + canonical_json(it.to_dict()) + "\n")
    assert not os.path.exists(store.state_path)
    assert load_state(store.root).to_dict() == store.state.to_dict()

    state.status = STATUS_BUDGET
    store.persist()
    assert sorted(os.listdir(store.root)) == ["designs", "state.json"]  # no journal
    with open(store.state_path) as fh:
        on_disk = fh.read()
    reloaded = RunState.from_dict(json.loads(on_disk))
    assert reloaded.to_dict() == load_state(store.root).to_dict() == store.state.to_dict()
    # byte-identical re-serialization
    assert on_disk == canonical_json(store.state.to_dict())


def test_advantages_written_back_to_passers(tmp_path):
    state = RunState(run_id="r", design_name="d", config={})
    store = TrajectoryStore(str(tmp_path / "r"), state)
    it = store.begin_iteration("p", 3, [])
    store.record_candidate(it, _cand("c0", -0.5))
    store.record_candidate(it, _cand("c1", sec_pass=False))
    store.record_candidate(it, _cand("c2", 0.1))
    store.finalize_iteration(it, group_advantage([-0.5, 0.1]), "c0")
    assert it.candidates[0].advantage == pytest.approx(-1.0)
    assert it.candidates[1].advantage is None
    assert it.candidates[2].advantage == pytest.approx(1.0)


@pytest.mark.parametrize("advantages", [(), (-1.0, 0.0, 1.0)], ids=["none", "too-many"])
def test_advantages_must_match_the_passers(tmp_path, advantages):
    store = TrajectoryStore(str(tmp_path / "r"),
                            RunState(run_id="r", design_name="d", config={}))
    it = store.begin_iteration("p", 2, [])
    store.record_candidate(it, _cand("c0", -0.5))
    store.record_candidate(it, _cand("c1", 0.1))
    with pytest.raises(TrajectoryError, match="2 SEC-passing candidates"):
        store.finalize_iteration(it, advantages, "c0")
    assert not it.finalized and it.candidates[0].advantage is None
    assert not os.path.exists(store.state_path)
    assert not os.path.exists(store.journal_path)


def test_store_validation_errors(tmp_path):
    store = TrajectoryStore(str(tmp_path / "r"),
                            RunState(run_id="r", design_name="d", config={}))
    it = store.begin_iteration("p", 1, [])
    store.record_candidate(it, _cand("c0"))
    with pytest.raises(TrajectoryError):
        store.record_candidate(it, _cand("c1"))        # full group
    with pytest.raises(TrajectoryError):
        store.finalize_iteration(it, (0.0,), "missing")
    it2 = store.begin_iteration("p", 2, [DIAGNOSIS])
    store.record_candidate(it2, _cand("c0"))
    with pytest.raises(TrajectoryError):
        store.record_candidate(it2, _cand("c0"))       # duplicate id
    stray = _cand("c1")
    stray.path = 1
    with pytest.raises(TrajectoryError):
        store.record_candidate(it2, stray)             # no diagnosed path 1
    with pytest.raises(TrajectoryError):
        store.finalize_iteration(it2, (0.0,), None)  # short group


def test_iteration_is_finalized_once(tmp_path):
    """A finalized iteration's encoding is kept, so finalizing it again (which
    could change it under its kept piece) is an error."""
    store = TrajectoryStore(str(tmp_path / "r"),
                            RunState(run_id="r", design_name="d", config={}))
    it = store.begin_iteration("p", 1, [])
    store.record_candidate(it, _cand("c0", -0.2))
    store.finalize_iteration(it, group_advantage([-0.2]), "c0")
    with pytest.raises(TrajectoryError, match="already finalized"):
        store.finalize_iteration(it, (0.0,), None)
    assert it.selected == "c0"
    open_it = store.begin_iteration("p", 1, [DIAGNOSIS])  # not finalized: not journaled
    store.persist()
    assert [i.index for i in load_state(store.root).iterations] == [0]
    store.record_candidate(open_it, _cand("c0", -0.1))
    # A run that ends mid-iteration stores it in state.json, encoded per write.
    store.state.status = STATUS_BUDGET
    store.persist()
    with open(store.state_path) as fh:
        assert fh.read() == canonical_json(store.state.to_dict())
    assert load_state(store.root).to_dict() == store.state.to_dict()


def test_run_journals_each_finalized_iteration_then_writes_state_once(tmp_path,
                                                                      monkeypatch):
    """Each finalized iteration is on disk, as its journal line, when
    ``finalize_iteration`` returns; state.json is written once, at run end,
    as the whole state's canonical JSON, and the journal goes."""
    iterations = 3
    writes = []     # (iterations recorded, status) at each state.json write
    journaled = []  # iterations load_state reads after each finalize_iteration
    persist, finalize = TrajectoryStore._persist_locked, TrajectoryStore.finalize_iteration

    def counted(store):
        persist(store)
        writes.append((len(store.state.iterations), store.state.status))
        with open(store.state_path) as fh:
            assert fh.read() == canonical_json(store.state.to_dict())

    def durable(store, iteration, *args):
        key = finalize(store, iteration, *args)
        assert not os.path.exists(store.state_path)
        with open(store.journal_path) as fh:
            assert design_hash(fh.read().splitlines()[-1]) == key
        on_disk = load_state(store.root)
        assert on_disk.to_dict() == replace(
            store.state, iterations=store.state.iterations[:iteration.index + 1]).to_dict()
        journaled.append(len(on_disk.iterations))
        return key

    monkeypatch.setattr(TrajectoryStore, "_persist_locked", counted)
    monkeypatch.setattr(TrajectoryStore, "finalize_iteration", durable)
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=iterations),
                 str(tmp_path))
    assert journaled == [1, 2, 3]
    assert writes == [(iterations, "budget-exhausted")]
    assert not os.path.exists(os.path.join(result.run_dir, "journal.jsonl"))


def test_finished_run_fsyncs_each_write_once_and_leaves_no_journal(tmp_path, monkeypatch):
    """A run of I iterations fsyncs I + 2 times: the journal head, one append
    per finalized iteration and state.json. Its directory holds what it did
    before the journal: no journal and no temporary file."""
    fsyncs = []
    fsync = os.fsync

    def counted(fd):
        fsyncs.append(fd)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counted)
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=3),
                 str(tmp_path))
    assert len(fsyncs) == 1 + 3 + 1
    assert sorted(os.listdir(result.run_dir)) == [
        "designs", "result.json", "skills.json", "state.json"]


def test_run_stores_each_fact_once(tmp_path):
    """A finished run's state.json keeps no timing reports, group stats or
    skill ids; every stored stage carries its width and column."""
    result = run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=3),
                 str(tmp_path))
    with open(os.path.join(result.run_dir, "state.json")) as fh:
        state = json.load(fh)
    evals = [c["eval"] for it in state["iterations"] for c in it["candidates"]
             if c["eval"] is not None]
    assert evals and all(e.keys() == {"metrics", "sec_pass", "sec_mode"} for e in evals)
    assert all(it.keys() == {"index", "parent_id", "group_size", "diagnoses",
                             "candidates", "selected", "finalized"}
               for it in state["iterations"])
    assert all("skill_id" not in c for it in state["iterations"] for c in it["candidates"])
    stages = [s for it in state["iterations"] for d in it["diagnoses"]
              for s in d["path"]["stages"]]
    assert stages and all(s.keys() == {"node", "op", "delay_ns", "width", "loc"}
                          and s["loc"].keys() == {"file", "line", "col"} for s in stages)


def test_best_so_far_series():
    state = _state_with_bests([-0.2, -0.1, -0.3])
    assert best_so_far_scores(state) == [0.0, -0.2, -0.2, -0.3]


def test_running_best_keeps_earliest_tie_and_counts_slots():
    groups = [[_cand("a", -0.2), _cand("b", -0.2), _cand("c", status="skipped")],
              [_cand("d", -0.5, sec_pass=False), _cand("e", -0.1)]]
    state = RunState(run_id="r", design_name="d", config={}, iterations=[
        IterationRecord(index=i, parent_id="p", group_size=len(g), candidates=g)
        for i, g in enumerate(groups)])
    first, second = running_best(state)
    assert first.candidate.candidate_id == second.candidate.candidate_id == "a"
    assert (first.evaluated, first.passed) == (2, 2)
    assert (second.evaluated, second.passed) == (4, 3)
    assert second.score == -0.2 and second.pass_rate == pytest.approx(3 / 4)


def test_running_best_is_baseline_until_a_gain():
    (only,) = running_best(_state_with_bests([0.0]))
    assert only.candidate is None and only.score == 0.0


def test_convergence_steps_examples():
    # improvement at t=1 only
    assert convergence_steps(_state_with_bests([-0.2, -0.2, -0.2])) == 1
    # never improves
    assert convergence_steps(_state_with_bests([0.0, 0.0, 0.0])) == 0
    # strictly improving through the last iteration
    assert convergence_steps(_state_with_bests([-0.1, -0.2, -0.3])) == 3
    # sub-epsilon improvements do not count
    assert convergence_steps(_state_with_bests([-0.2, -0.2005, -0.2006]),
                             epsilon=1e-3) == 1


def test_sec_pass_rate_excludes_skipped():
    state = RunState(run_id="r", design_name="d", config={})
    it = IterationRecord(index=0, parent_id="p", group_size=4, candidates=[
        _cand("c0", -0.1),
        _cand("c1", sec_pass=False),
        _cand("c2", status="skipped"),
        _cand("c3", -0.2),
    ], finalized=True)
    state.iterations.append(it)
    assert running_best(state)[-1].pass_rate == pytest.approx(2 / 3)


def test_runstate_roundtrip():
    state = _state_with_bests([-0.2, -0.1])
    again = RunState.from_dict(state.to_dict())
    assert again.to_dict() == state.to_dict()
    assert canonical_json(again.to_dict()) == canonical_json(state.to_dict())
