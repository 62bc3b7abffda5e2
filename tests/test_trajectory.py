"""Three-layer trajectory store: persistence, validation, derived metrics."""

import pytest

from corpus import CHAIN_ADDER_8
from rtlopt.backend import EvalResult, PpaMetrics
from rtlopt.dsl import parse
from rtlopt.orchestrator import RunConfig, run
from rtlopt.scoring import CandidateScore, GroupStats, group_advantage
from rtlopt.timing import TimingReport
from rtlopt.trajectory import (
    CandidateRecord,
    IterationRecord,
    RunState,
    TrajectoryError,
    TrajectoryStore,
    best_so_far_scores,
    canonical_json,
    convergence_steps,
    design_hash,
    running_best,
    sec_pass_rate,
)


def _eval(sec_pass=True):
    return EvalResult(PpaMetrics(-0.1, -0.1, 96.0), sec_pass, "exhaustive",
                      TimingReport(clock_ns=0.5, endpoints=()), "builtin")


def _cscore(value):
    return CandidateScore(0.0, 0.0, 0.0, 0.0, value, True)


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

    it = store.begin_iteration(parent_id=ref, group_size=2)
    store.record_candidate(it, _cand("t0c0", -0.4))
    store.record_candidate(it, _cand("t0c1", -0.1))
    store.finalize_iteration(it, group_advantage([-0.4, -0.1]), "t0c0")

    reloaded = TrajectoryStore.load(str(tmp_path / "run1"))
    assert reloaded.state.to_dict() == store.state.to_dict()
    # byte-identical re-serialization
    with open(store.state_path) as fh:
        on_disk = fh.read()
    assert on_disk == canonical_json(store.state.to_dict())


def test_advantages_written_back_to_passers(tmp_path):
    state = RunState(run_id="r", design_name="d", config={})
    store = TrajectoryStore(str(tmp_path / "r"), state)
    it = store.begin_iteration("p", 3)
    store.record_candidate(it, _cand("c0", -0.5))
    store.record_candidate(it, _cand("c1", sec_pass=False))
    store.record_candidate(it, _cand("c2", 0.1))
    store.finalize_iteration(it, group_advantage([-0.5, 0.1]), "c0")
    assert it.candidates[0].advantage == pytest.approx(-1.0)
    assert it.candidates[1].advantage is None
    assert it.candidates[2].advantage == pytest.approx(1.0)


def test_store_validation_errors(tmp_path):
    store = TrajectoryStore(str(tmp_path / "r"),
                            RunState(run_id="r", design_name="d", config={}))
    it = store.begin_iteration("p", 1)
    store.record_candidate(it, _cand("c0"))
    with pytest.raises(TrajectoryError):
        store.record_candidate(it, _cand("c1"))        # full group
    with pytest.raises(TrajectoryError):
        store.finalize_iteration(it, GroupStats(0, 0, ()), "missing")
    it2 = store.begin_iteration("p", 2)
    store.record_candidate(it2, _cand("c0"))
    with pytest.raises(TrajectoryError):
        store.record_candidate(it2, _cand("c0"))       # duplicate id
    with pytest.raises(TrajectoryError):
        store.finalize_iteration(it2, GroupStats(0, 0, ()), None)  # short group


def test_run_writes_state_once_per_finalized_iteration(tmp_path, monkeypatch):
    iterations = 3
    writes = []  # (iterations recorded, status) at each state.json write
    persist = TrajectoryStore._persist_locked
    finalize = TrajectoryStore.finalize_iteration

    def counted(store):
        persist(store)
        writes.append((len(store.state.iterations), store.state.status))

    def checked(store, *args):
        finalize(store, *args)
        with open(store.state_path) as fh:
            assert fh.read() == canonical_json(store.state.to_dict())

    monkeypatch.setattr(TrajectoryStore, "_persist_locked", counted)
    monkeypatch.setattr(TrajectoryStore, "finalize_iteration", checked)
    run(parse(CHAIN_ADDER_8, "chain.rtl"), RunConfig(iterations=iterations),
        str(tmp_path))
    assert len(writes) == iterations + 2
    assert writes == [(i, "running") for i in range(iterations + 1)] + [
        (iterations, "budget-exhausted")]


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
    assert sec_pass_rate(state) == pytest.approx(2 / 3)


def test_runstate_roundtrip():
    state = _state_with_bests([-0.2, -0.1])
    again = RunState.from_dict(state.to_dict())
    assert again.to_dict() == state.to_dict()
    assert canonical_json(again.to_dict()) == canonical_json(state.to_dict())
