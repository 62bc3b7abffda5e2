"""Three-layer optimization-trajectory store.

Layer 1 is the iteration round, layer 2 the parallel candidate group with
PPA/SEC results, layer 3 the per-path events (diagnosis, transformation,
outcome). State persists as canonical JSON (sorted keys, compact
separators, shortest round-trip floats) so identical runs produce byte-
identical files; design snapshots are stored content-addressed next to it.

The store has one writer: the loop's own thread records every iteration
after the evaluation pool has joined, so it holds no lock. ``state.json``
is written when the run starts, when each iteration is finalized and when
the run ends; beginning an iteration and recording its candidates only
change the in-memory state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .backend import EvalResult
from .scoring import CandidateScore, GroupStats
from .timing import BottleneckDiagnosis

STATUS_RUNNING = "running"
STATUS_BUDGET = "budget-exhausted"

CANDIDATE_OK = "ok"
CANDIDATE_SKIPPED = "skipped"
CANDIDATE_EVAL_ERROR = "eval-error"

DEFAULT_CONVERGENCE_EPSILON = 1e-3


class TrajectoryError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def design_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()[:16]


@dataclass
class PathEvent:
    diagnosis: BottleneckDiagnosis
    strategy: str
    description: str
    edit_region: dict   # {file, start_line, end_line}
    outcome: str = ""

    def to_dict(self) -> dict:
        return {
            "diagnosis": self.diagnosis.to_dict(),
            "strategy": self.strategy,
            "description": self.description,
            "edit_region": dict(self.edit_region),
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PathEvent":
        return cls(BottleneckDiagnosis.from_dict(d["diagnosis"]), d["strategy"],
                   d["description"], d["edit_region"], d["outcome"])


@dataclass
class CandidateRecord:
    candidate_id: str
    design_ref: str            # content hash of the candidate source
    proposer_kind: str         # "skill-guided" | "llm" | "rule"
    skill_id: str | None = None
    eval: EvalResult | None = None
    score: CandidateScore | None = None
    advantage: float | None = None
    path_events: list[PathEvent] = field(default_factory=list)
    status: str = CANDIDATE_OK
    note: str = ""

    @property
    def sec_pass(self) -> bool:
        return self.eval is not None and self.eval.sec_pass

    def to_dict(self) -> dict:
        return {
            "candidate_id": self.candidate_id,
            "design_ref": self.design_ref,
            "proposer_kind": self.proposer_kind,
            "skill_id": self.skill_id,
            "eval": self.eval.to_dict() if self.eval else None,
            "score": self.score.to_dict() if self.score else None,
            "advantage": self.advantage,
            "path_events": [e.to_dict() for e in self.path_events],
            "status": self.status,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CandidateRecord":
        return cls(
            candidate_id=d["candidate_id"],
            design_ref=d["design_ref"],
            proposer_kind=d["proposer_kind"],
            skill_id=d["skill_id"],
            eval=EvalResult.from_dict(d["eval"]) if d["eval"] else None,
            score=CandidateScore.from_dict(d["score"]) if d["score"] else None,
            advantage=d["advantage"],
            path_events=[PathEvent.from_dict(e) for e in d["path_events"]],
            status=d["status"],
            note=d["note"],
        )


@dataclass
class IterationRecord:
    index: int
    parent_id: str
    group_size: int
    candidates: list[CandidateRecord] = field(default_factory=list)
    group_stats: GroupStats | None = None
    selected: str | None = None
    finalized: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "parent_id": self.parent_id,
            "group_size": self.group_size,
            "candidates": [c.to_dict() for c in self.candidates],
            "group_stats": self.group_stats.to_dict() if self.group_stats else None,
            "selected": self.selected,
            "finalized": self.finalized,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IterationRecord":
        return cls(
            index=d["index"],
            parent_id=d["parent_id"],
            group_size=d["group_size"],
            candidates=[CandidateRecord.from_dict(c) for c in d["candidates"]],
            group_stats=GroupStats.from_dict(d["group_stats"]) if d["group_stats"] else None,
            selected=d["selected"],
            finalized=d["finalized"],
        )


@dataclass
class RunState:
    run_id: str
    design_name: str
    config: dict
    baseline: dict | None = None          # PpaMetrics dict
    baseline_design_ref: str | None = None
    iterations: list[IterationRecord] = field(default_factory=list)
    status: str = STATUS_RUNNING

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "design_name": self.design_name,
            "config": self.config,
            "baseline": self.baseline,
            "baseline_design_ref": self.baseline_design_ref,
            "iterations": [it.to_dict() for it in self.iterations],
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunState":
        return cls(
            run_id=d["run_id"],
            design_name=d["design_name"],
            config=d["config"],
            baseline=d["baseline"],
            baseline_design_ref=d["baseline_design_ref"],
            iterations=[IterationRecord.from_dict(it) for it in d["iterations"]],
            status=d["status"],
        )


class TrajectoryStore:
    """Durable run state under one directory: state.json + designs/<hash>.rtl.

    Single-threaded: only the loop's thread calls it. ``persist`` and
    ``finalize_iteration`` write ``state.json`` atomically (write temp,
    fsync, rename); the other mutations wait for the next of those, so a
    crash mid-iteration leaves the last finalized state on disk.
    """

    def __init__(self, root: str, state: RunState):
        self.root = root
        self.state = state
        os.makedirs(os.path.join(root, "designs"), exist_ok=True)

    # --- persistence ------------------------------------------------------

    @property
    def state_path(self) -> str:
        return os.path.join(self.root, "state.json")

    # Every write goes through this one name: perfbench counts writes on it.
    def _persist_locked(self):
        payload = canonical_json(self.state.to_dict())
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.state_path)

    def persist(self):
        self._persist_locked()

    @classmethod
    def load(cls, root: str) -> "TrajectoryStore":
        with open(os.path.join(root, "state.json")) as fh:
            state = RunState.from_dict(json.load(fh))
        return cls(root, state)

    def save_design(self, source: str) -> str:
        ref = design_hash(source)
        path = os.path.join(self.root, "designs", f"{ref}.rtl")
        if not os.path.exists(path):
            with open(path, "w") as fh:
                fh.write(source)
        return ref

    def load_design_source(self, ref: str) -> str:
        with open(os.path.join(self.root, "designs", f"{ref}.rtl")) as fh:
            return fh.read()

    # --- three-layer record keeping ---------------------------------------

    def begin_iteration(self, parent_id: str, group_size: int) -> IterationRecord:
        if self.state.status != STATUS_RUNNING:
            raise TrajectoryError(f"run is {self.state.status}, not running")
        record = IterationRecord(index=len(self.state.iterations),
                                 parent_id=parent_id, group_size=group_size)
        self.state.iterations.append(record)
        return record

    def record_candidate(self, iteration: IterationRecord, record: CandidateRecord):
        if iteration.finalized:
            raise TrajectoryError("iteration already finalized")
        if len(iteration.candidates) >= iteration.group_size:
            raise TrajectoryError(
                f"group already holds {iteration.group_size} candidates")
        if any(c.candidate_id == record.candidate_id for c in iteration.candidates):
            raise TrajectoryError(f"duplicate candidate id {record.candidate_id!r}")
        iteration.candidates.append(record)

    def finalize_iteration(self, iteration: IterationRecord, stats: GroupStats,
                           selected: str | None):
        if len(iteration.candidates) < iteration.group_size:
            raise TrajectoryError(
                f"only {len(iteration.candidates)}/{iteration.group_size} "
                "candidates recorded")
        if selected is not None:
            match = [c for c in iteration.candidates if c.candidate_id == selected]
            if not match or not match[0].sec_pass:
                raise TrajectoryError(
                    f"selected candidate {selected!r} is not a SEC-passing member")
        # Write advantages back onto the passing candidates, in group order.
        passers = [c for c in iteration.candidates if c.sec_pass]
        if stats.advantages and len(stats.advantages) == len(passers):
            for cand, adv in zip(passers, stats.advantages):
                cand.advantage = adv
        iteration.group_stats = stats
        iteration.selected = selected
        iteration.finalized = True
        self._persist_locked()


@dataclass(frozen=True)
class RunningBest:
    """The run as it stands after one iteration."""
    candidate: CandidateRecord | None  # best SEC-passing so far; None: baseline
    evaluated: int                     # non-skipped candidate slots so far
    passed: int                        # SEC-passing slots so far

    @property
    def score(self) -> float:
        return self.candidate.score.score if self.candidate else 0.0

    @property
    def pass_rate(self) -> float:
        return self.passed / self.evaluated if self.evaluated else 0.0


def running_best(state: RunState) -> list[RunningBest]:
    """One entry per iteration, in order.

    A candidate must beat the best so far strictly: ties keep the earliest,
    and only a score below the baseline's 0.0 replaces the baseline.
    """
    series = []
    best, best_score = None, 0.0
    evaluated = passed = 0
    for it in state.iterations:
        for cand in it.candidates:
            if cand.status == CANDIDATE_SKIPPED:
                continue
            evaluated += 1
            if cand.sec_pass:
                passed += 1
                if cand.score is not None and cand.score.score < best_score:
                    best, best_score = cand, cand.score.score
        series.append(RunningBest(best, evaluated, passed))
    return series


def best_so_far_scores(state: RunState) -> list[float]:
    """Score series: baseline 0.0 followed by the running best per iteration."""
    return [0.0] + [b.score for b in running_best(state)]


def convergence_steps(state: RunState,
                      epsilon: float = DEFAULT_CONVERGENCE_EPSILON) -> int:
    """Smallest t* after which the best-so-far score never improves by >= epsilon.

    Returns the iteration count when the run is still improving at the end.
    """
    series = best_so_far_scores(state)
    t_star = 0
    for t in range(1, len(series)):
        if series[t - 1] - series[t] >= epsilon:
            t_star = t
    return t_star


def sec_pass_rate(state: RunState) -> float:
    """Passing fraction over all evaluated (non-skipped) candidate slots."""
    series = running_best(state)
    return series[-1].pass_rate if series else 0.0
