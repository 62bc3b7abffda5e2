"""Closed-loop optimization: analyze, propose, evaluate, select, distill.

Each iteration diagnoses the current design's worst paths, proposes N
candidates, evaluates them all (synthesis plus equivalence against the
ORIGINAL design, never the intermediate parent), scores them against the
frozen baseline, promotes the best passing candidate, and folds the
group's relative advantages into the skill library for the next round.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import backend as be
from .dsl import RtlDesign, parse
from .proposer import Proposal, ProposerConfig, propose_group
from .records import Record, Settings
from .scoring import ScoreWeights, group_advantage, score, select_next
from .skills import SkillLibrary, distill, export_library
from .timing import diagnose, select_critical_paths
from .trajectory import (
    CANDIDATE_EVAL_ERROR,
    CANDIDATE_OK,
    CANDIDATE_SKIPPED,
    STATUS_BUDGET,
    CandidateRecord,
    RunState,
    TrajectoryStore,
    best_so_far_scores,
    canonical_json,
    convergence_steps,
    running_best,
)


@dataclass(frozen=True)
class RunConfig(Settings):
    iterations: int = 10
    candidates: int = 5
    top_k_paths: int = 3
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    backend: be.BackendConfig = field(default_factory=be.BackendConfig)
    proposer: ProposerConfig = field(default_factory=ProposerConfig)
    seed: int = 0

    def __post_init__(self):
        if min(self.iterations, self.candidates, self.top_k_paths) < 1:
            raise ValueError("iterations, candidates and top_k_paths must be >= 1")


@dataclass
class RunResult(Record):
    best_metrics: be.PpaMetrics
    best_design_ref: str
    best_score: float
    improvement: dict               # {"wns_pct", "tns_pct", "area_pct"}
    sec_pass_rate: float
    convergence_steps: int
    best_so_far: list[float]
    status: str
    run_dir: str

    def to_dict(self) -> dict:
        d = super().to_dict()
        # Only the run id is serialized; the absolute directory is
        # environment-specific and would break byte-identical artifacts.
        d["run_id"] = os.path.basename(d.pop("run_dir"))
        return d


class BaselineEvaluationError(Exception):
    """The original design itself failed to evaluate; nothing can proceed."""


def _pct(value: float, baseline: float) -> float:
    # Table-style deltas: a negative percentage means WNS/TNS moved from a
    # violated baseline toward zero, or area shrank.
    if abs(baseline) < 1e-9:
        return 0.0
    return (value - baseline) / baseline * 100.0


# Serial. With width-typed simulation a builtin check is a run of short numpy
# operations that contend for the interpreter lock, and serial evaluation won
# every alternating pair against a thread per slot (2 cores, seed 7, 20 s
# runs): run_s on comb-chains 0.92 s serial against 1.08 s pooled (6 of 6
# pairs), on seq-datapath 1.67 s against 2.76 s (4 of 4), with less CPU and
# memory. No workload runs the external backend, so overlapping its tool
# runs is left until one measures it.
def evaluate_group(proposals: list[Proposal], sec: be.GoldenSec,
                   config: be.BackendConfig):
    """Evaluate candidates one after another against ``sec.golden``, the
    run's original design; failures isolate to their slot. Each slot holds
    None (skipped), the exception, or ``be.evaluate``'s (result, report)."""

    def one(proposal: Proposal):
        if proposal.skipped:
            return None
        try:
            return be.evaluate(proposal.design, config, sec)
        except Exception as exc:  # candidate-level failure never aborts the run
            return exc

    return [one(p) for p in proposals]


def run_dir_of(design: RtlDesign, config: RunConfig, out_dir: str) -> str:
    """The directory under ``out_dir`` that ``run`` gives this run."""
    return os.path.join(out_dir, f"{design.name}-seed{config.seed}")


def run(design: RtlDesign, config: RunConfig, out_dir: str,
        library: SkillLibrary | None = None, llm_client=None) -> RunResult:
    if library is None:
        library = SkillLibrary()
    run_dir = run_dir_of(design, config, out_dir)

    try:
        baseline_metrics, baseline_report = be.synthesize(design, config.backend)
    except Exception as exc:
        raise BaselineEvaluationError(str(exc)) from exc

    state = RunState(run_id=os.path.basename(run_dir), design_name=design.name,
                     config=config.to_dict(), baseline=baseline_metrics)
    store = TrajectoryStore(run_dir, state)
    state.baseline_design_ref = store.save_design(design.source)
    store.persist()

    # One SEC context per run: every candidate is checked against the
    # original design, so the run shares its stimulus and golden traces.
    # Nothing is kept past the run.
    sec = be.GoldenSec(design)
    current = design
    current_id = state.baseline_design_ref
    current_report = baseline_report
    repeat = False

    for t in range(config.iterations):
        if not repeat:
            paths = select_critical_paths(current_report, config.top_k_paths)
            diagnoses = [diagnose(p, current) for p in paths]
            proposals = propose_group(current, diagnoses, library, config.proposer,
                                      llm_client=llm_client)
        # A group whose every slot was skipped selects nothing and gives
        # distill no evidence, so the parent and the library's entries stay
        # as they are and, without an LLM, the next iteration would diagnose
        # and propose exactly the same again.
        repeat = llm_client is None and all(p.skipped for p in proposals)
        results = evaluate_group(proposals, sec, config.backend)

        iteration = store.begin_iteration(current_id, len(proposals), diagnoses)
        records: list[CandidateRecord] = []
        reports = {}  # candidate id -> timing report, kept for the next diagnosis
        for i, (proposal, result) in enumerate(zip(proposals, results)):
            candidate_id = f"t{t}c{i}"
            if proposal.skipped:
                record = CandidateRecord(candidate_id, "", proposal.provenance,
                                         status=CANDIDATE_SKIPPED,
                                         note=proposal.rationale)
            else:
                record = CandidateRecord(
                    candidate_id, store.save_design(proposal.design.source),
                    proposal.provenance, strategy=proposal.strategy,
                    path=(None if proposal.diagnosis is None
                          else diagnoses.index(proposal.diagnosis)),
                    note=proposal.rationale)
                if isinstance(result, Exception):
                    record.status = CANDIDATE_EVAL_ERROR
                    record.note = str(result)
                else:
                    record.eval, reports[candidate_id] = result
                    record.score = score(record.eval.metrics, baseline_metrics,
                                         config.weights)
            records.append(record)
            store.record_candidate(iteration, record)

        advantages = group_advantage([r.score.score for r in records if r.sec_pass])
        selected = select_next([r for r in records if r.status == CANDIDATE_OK])
        selected_id = selected.candidate_id if selected is not None else None
        key = store.finalize_iteration(iteration, advantages, selected_id)

        distill(iteration, library, key)

        if selected is not None:
            current_id = selected.design_ref
            current = parse(store.load_design_source(selected.design_ref),
                            filename=design.filename)
            current_report = reports[selected.candidate_id]

    state.status = STATUS_BUDGET
    store.persist()

    final = running_best(state)[-1]
    best = final.candidate
    best_metrics = best.eval.metrics if best else baseline_metrics
    result = RunResult(
        best_metrics=best_metrics,
        best_design_ref=best.design_ref if best else state.baseline_design_ref,
        best_score=final.score,
        improvement={
            "wns_pct": _pct(best_metrics.wns, baseline_metrics.wns),
            "tns_pct": _pct(best_metrics.tns, baseline_metrics.tns),
            "area_pct": _pct(best_metrics.area, baseline_metrics.area),
        },
        sec_pass_rate=final.pass_rate,
        convergence_steps=convergence_steps(state),
        best_so_far=best_so_far_scores(state),
        status=state.status,
        run_dir=run_dir,
    )
    export_library(library, os.path.join(run_dir, "skills.json"))
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        fh.write(canonical_json(result.to_dict()))
    return result
