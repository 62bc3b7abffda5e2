"""Closed-loop optimization: analyze, propose, evaluate, select, distill.

Each iteration diagnoses the current design's worst paths, proposes N
candidates, evaluates them all (synthesis plus equivalence against the
ORIGINAL design, never the intermediate parent), scores them against the
frozen baseline, promotes the best passing candidate, and folds the
group's relative advantages into the skill library for the next round.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import backend as be
from .dsl import RtlDesign, parse
from .proposer import Proposal, ProposerConfig, propose_group
from .scoring import ScoreWeights, group_advantage, score, select_next
from .skills import SkillLibrary, distill, export_library
from .timing import diagnose, select_critical_paths
from .trajectory import (
    CANDIDATE_EVAL_ERROR,
    CANDIDATE_OK,
    CANDIDATE_SKIPPED,
    DEFAULT_CONVERGENCE_EPSILON,
    STATUS_BUDGET,
    CandidateRecord,
    PathEvent,
    RunState,
    TrajectoryStore,
    best_so_far_scores,
    canonical_json,
    convergence_steps,
    running_best,
)


@dataclass(frozen=True)
class RunConfig:
    iterations: int = 10
    candidates: int = 5
    top_k_paths: int = 3
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    backend: be.BackendConfig = field(default_factory=be.BackendConfig)
    proposer: ProposerConfig = field(default_factory=ProposerConfig)
    convergence_epsilon: float = DEFAULT_CONVERGENCE_EPSILON
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.candidates < 1:
            raise ValueError("iterations and candidates must be >= 1")

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "candidates": self.candidates,
            "top_k_paths": self.top_k_paths,
            "weights": self.weights.to_dict(),
            "backend": self.backend.to_dict(),
            "proposer": self.proposer.to_dict(),
            "convergence_epsilon": self.convergence_epsilon,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Unknown keys raise TypeError; absent ones take the field default."""
        sections = {"weights": ScoreWeights, "backend": be.BackendConfig,
                    "proposer": ProposerConfig}
        return cls(**{k: sections[k].from_dict(v) if k in sections else v
                      for k, v in d.items()})


@dataclass
class RunResult:
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
        return {
            "best_metrics": self.best_metrics.to_dict(),
            "best_design_ref": self.best_design_ref,
            "best_score": self.best_score,
            "improvement": dict(self.improvement),
            "sec_pass_rate": self.sec_pass_rate,
            "convergence_steps": self.convergence_steps,
            "best_so_far": list(self.best_so_far),
            "status": self.status,
            # Only the run id is serialized; the absolute directory is
            # environment-specific and would break byte-identical artifacts.
            "run_id": os.path.basename(self.run_dir),
        }


class BaselineEvaluationError(Exception):
    """The original design itself failed to evaluate; nothing can proceed."""


def _pct(value: float, baseline: float) -> float:
    if abs(baseline) < 1e-9:
        return 0.0
    return (value - baseline) / abs(baseline) * 100.0 * _sign_for_report(baseline)


def _sign_for_report(baseline: float) -> float:
    # Table-style deltas: negative percentage always means "improved",
    # i.e. WNS/TNS moved toward zero or area shrank.
    return -1.0 if baseline < 0 else 1.0


# Pooled: serial evaluation made comb-chains run_s 6.7-6.9 s against 3.9-4.1 s (2 cores).
def evaluate_group(proposals: list[Proposal], golden: RtlDesign,
                   config: be.BackendConfig):
    """Evaluate candidates concurrently; failures isolate to their slot."""

    def one(proposal: Proposal):
        if proposal.skipped:
            return None
        try:
            return be.evaluate(proposal.design, golden, config)
        except Exception as exc:  # candidate-level failure never aborts the run
            return exc

    with ThreadPoolExecutor(max_workers=max(1, len(proposals))) as pool:
        return list(pool.map(one, proposals))


def run(design: RtlDesign, config: RunConfig, out_dir: str,
        library: SkillLibrary | None = None, run_id: str | None = None,
        llm_client=None) -> RunResult:
    if library is None:
        library = SkillLibrary()
    if run_id is None:
        run_id = f"{design.name}-seed{config.seed}"
    run_dir = os.path.join(out_dir, run_id)

    try:
        baseline_metrics, baseline_report = be.synthesize(design, config.backend)
    except Exception as exc:
        raise BaselineEvaluationError(str(exc)) from exc

    state = RunState(run_id=run_id, design_name=design.name,
                     config=config.to_dict(),
                     baseline=baseline_metrics.to_dict())
    store = TrajectoryStore(run_dir, state)
    state.baseline_design_ref = store.save_design(design.source)
    store.persist()

    current = design
    current_id = state.baseline_design_ref
    current_report = baseline_report

    for t in range(config.iterations):
        paths = select_critical_paths(current_report, config.top_k_paths)
        diagnoses = [diagnose(p, current) for p in paths]

        proposals = propose_group(current, diagnoses, library, config.proposer,
                                  llm_client=llm_client)
        results = evaluate_group(proposals, design, config.backend)

        iteration = store.begin_iteration(current_id, len(proposals))
        records: list[CandidateRecord] = []
        for i, (proposal, result) in enumerate(zip(proposals, results)):
            candidate_id = f"t{t}c{i}"
            if proposal.skipped:
                record = CandidateRecord(candidate_id, "", proposal.provenance,
                                         status=CANDIDATE_SKIPPED,
                                         note=proposal.rationale)
            elif isinstance(result, Exception):
                ref = store.save_design(proposal.source)
                record = CandidateRecord(candidate_id, ref, proposal.provenance,
                                         skill_id=proposal.skill_id,
                                         status=CANDIDATE_EVAL_ERROR,
                                         note=str(result))
            else:
                ref = store.save_design(proposal.source)
                cand_score = score(result.metrics, baseline_metrics,
                                   config.weights, sec_pass=result.sec_pass)
                record = CandidateRecord(candidate_id, ref, proposal.provenance,
                                         skill_id=proposal.skill_id,
                                         eval=result, score=cand_score,
                                         note=proposal.rationale)
                if proposal.diagnosis is not None and proposal.strategy is not None:
                    region = proposal.diagnosis.rtl_region
                    record.path_events.append(PathEvent(
                        diagnosis=proposal.diagnosis,
                        strategy=proposal.strategy,
                        description=proposal.rationale,
                        edit_region=region.to_dict(),
                        outcome="sec-pass" if result.sec_pass else "sec-fail",
                    ))
            records.append(record)
            store.record_candidate(iteration, record)

        passer_scores = [r.score.score for r in records if r.sec_pass]
        stats = group_advantage(passer_scores)
        selected = select_next(None, [r for r in records if r.status == CANDIDATE_OK])
        selected_id = selected.candidate_id if selected is not None else None
        store.finalize_iteration(iteration, stats, selected_id)

        distill(iteration, library, run_id=run_id)

        if selected is not None:
            current_id = selected.design_ref
            current = parse(store.load_design_source(selected.design_ref),
                            filename=design.filename)
            current_report = selected.eval.timing_report

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
        convergence_steps=convergence_steps(state, config.convergence_epsilon),
        best_so_far=best_so_far_scores(state),
        status=state.status,
        run_dir=run_dir,
    )
    export_library(library, os.path.join(run_dir, "skills.json"))
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        fh.write(canonical_json(result.to_dict()))
    return result
