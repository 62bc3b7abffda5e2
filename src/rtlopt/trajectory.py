"""Three-layer optimization-trajectory store.

Layer 1 is the iteration round with its diagnosed critical paths, layer 2
the parallel candidate group with PPA/SEC results, and layer 3 each
candidate's path record: the catalog strategy it applied and the index of
the diagnosed path it targeted. Each fact is stored once: the iteration
holds the diagnoses its candidates share, a candidate's outcome is its own
metrics and SEC verdict, and each passing candidate holds its advantage.
No timing report is stored: the diagnosed paths are what the loop used of
them. A candidate's skill is (its path's pattern, its strategy). State
persists as canonical JSON (sorted keys, compact separators, shortest
round-trip floats) so identical runs produce byte-identical files; design
snapshots are stored content-addressed next to it.

The store has one writer: the loop's own thread records every iteration
after the group's evaluation has returned, so it holds no lock. A run that
is going keeps a write-ahead journal, ``journal.jsonl``: its first line is
the run head (the state without iterations), written when the run starts,
and each finalized iteration appends its canonical JSON as one more line,
fsynced before the next iteration begins. When the run ends, ``state.json``
is written once and the journal is deleted. Beginning an iteration and
recording its candidates only change the in-memory state. A finalized
iteration cannot change again, so its canonical JSON is encoded once, when
it is finalized: that piece is its journal line, and ``state.json`` joins
the kept pieces. ``load_state`` reads a run either way.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field, replace

from .backend import EvalResult, PpaMetrics
from .records import ConfigError, Record, read_record
from .scoring import CandidateScore
from .timing import BottleneckDiagnosis

STATUS_RUNNING = "running"
STATUS_BUDGET = "budget-exhausted"

CANDIDATE_OK = "ok"
CANDIDATE_SKIPPED = "skipped"
CANDIDATE_EVAL_ERROR = "eval-error"

DEFAULT_CONVERGENCE_EPSILON = 1e-3

STATE_FILE = "state.json"
JOURNAL_FILE = "journal.jsonl"


class TrajectoryError(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


def design_hash(source: str) -> str:
    """16-hex sha256 prefix: a design's reference, and the key of a distilled
    iteration (of its canonical JSON)."""
    return hashlib.sha256(source.encode()).hexdigest()[:16]


@dataclass
class CandidateRecord(Record):
    candidate_id: str
    design_ref: str            # content hash of the candidate source
    proposer_kind: str         # "skill-guided" | "llm" | "rule" | "skipped"
    strategy: str | None = None  # catalog key; None for LLM and skipped slots
    path: int | None = None      # index into the iteration's diagnoses
    eval: EvalResult | None = None
    score: CandidateScore | None = None
    advantage: float | None = None
    status: str = CANDIDATE_OK
    note: str = ""

    @property
    def sec_pass(self) -> bool:
        return self.eval is not None and self.eval.sec_pass


@dataclass
class IterationRecord(Record):
    index: int
    parent_id: str
    group_size: int
    diagnoses: list[BottleneckDiagnosis] = field(default_factory=list)  # top-k paths
    candidates: list[CandidateRecord] = field(default_factory=list)
    selected: str | None = None
    finalized: bool = False


@dataclass
class RunState(Record):
    run_id: str
    design_name: str
    config: dict
    baseline: PpaMetrics | None = None
    baseline_design_ref: str | None = None
    iterations: list[IterationRecord] = field(default_factory=list)
    status: str = STATUS_RUNNING


class TrajectoryStore:
    """Durable run state under one directory: journal.jsonl while the run is
    going, state.json once it has ended, and designs/<hash>.rtl.

    Single-threaded: only the loop's thread calls it. ``persist`` starts the
    journal with the run head while the run is going, and writes
    ``state.json`` atomically (write temp, fsync, rename) and deletes the
    journal once it has ended. ``finalize_iteration`` appends the iteration
    to the journal and fsyncs it; the other mutations stay in memory, so a
    crash mid-iteration leaves the head and every finalized iteration on disk.
    """

    def __init__(self, root: str, state: RunState):
        self.root = root
        self.state = state
        self._encoded: dict[int, str] = {}  # iteration index -> its canonical JSON
        self._journaling = False            # the journal holds the head and _encoded
        os.makedirs(os.path.join(root, "designs"), exist_ok=True)

    # --- persistence ------------------------------------------------------

    @property
    def state_path(self) -> str:
        return os.path.join(self.root, STATE_FILE)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, JOURNAL_FILE)

    def _payload(self) -> str:
        """``canonical_json(self.state.to_dict())``, with each finalized
        iteration's piece encoded once, when it was finalized. Sorted keys
        and compact separators make an object the join of its encoded items."""
        iterations = ",".join(self._encoded.get(it.index) or canonical_json(it.to_dict())
                              for it in self.state.iterations)
        head = replace(self.state, iterations=[]).to_dict()
        return "{" + ",".join(
            canonical_json(key) + ":"
            + (f"[{iterations}]" if key == "iterations" else canonical_json(value))
            for key, value in sorted(head.items())) + "}"

    # Every state.json write goes through this one name: perfbench counts writes on it.
    def _persist_locked(self):
        _write_durably(self.state_path, self._payload())

    def _start_journal(self):
        head = canonical_json(replace(self.state, iterations=[]).to_dict())
        _write_durably(self.journal_path,
                       "".join(f"{line}\n" for line in (head, *self._encoded.values())))
        self._journaling = True

    def persist(self):
        """While the run is going, start its journal afresh: the head, then
        every finalized iteration. Once it has ended, write state.json and
        delete the journal, so a finished run leaves no journal."""
        if self.state.status == STATUS_RUNNING:
            # A state.json here is an earlier run's, which this one replaces.
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.state_path)
            self._start_journal()
        else:
            self._persist_locked()
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.journal_path)
            self._journaling = False

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

    def begin_iteration(self, parent_id: str, group_size: int,
                        diagnoses: list[BottleneckDiagnosis]) -> IterationRecord:
        if self.state.status != STATUS_RUNNING:
            raise TrajectoryError(f"run is {self.state.status}, not running")
        record = IterationRecord(index=len(self.state.iterations),
                                 parent_id=parent_id, group_size=group_size,
                                 diagnoses=list(diagnoses))
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
        if record.path is not None and not 0 <= record.path < len(iteration.diagnoses):
            raise TrajectoryError(f"path {record.path} is not a diagnosed path")
        iteration.candidates.append(record)

    def finalize_iteration(self, iteration: IterationRecord,
                           advantages: tuple[float, ...], selected: str | None) -> str:
        """``advantages`` has one value per SEC-passing candidate, in order.
        Returns the digest of the iteration's canonical JSON, its key in a
        skill library."""
        if iteration.finalized:
            raise TrajectoryError(f"iteration {iteration.index} already finalized")
        if len(iteration.candidates) < iteration.group_size:
            raise TrajectoryError(
                f"only {len(iteration.candidates)}/{iteration.group_size} "
                "candidates recorded")
        if selected is not None:
            match = [c for c in iteration.candidates if c.candidate_id == selected]
            if not match or not match[0].sec_pass:
                raise TrajectoryError(
                    f"selected candidate {selected!r} is not a SEC-passing member")
        passers = [c for c in iteration.candidates if c.sec_pass]
        if len(advantages) != len(passers):
            raise TrajectoryError(f"{len(advantages)} advantages for "
                                  f"{len(passers)} SEC-passing candidates")
        for cand, adv in zip(passers, advantages):
            cand.advantage = adv
        iteration.selected = selected
        iteration.finalized = True
        encoded = self._encoded[iteration.index] = canonical_json(iteration.to_dict())
        if self._journaling:
            with open(self.journal_path, "a") as fh:
                fh.write(encoded + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        else:
            self._start_journal()
        return design_hash(encoded)


def _write_durably(path: str, text: str):
    """Replace the file at ``path`` by ``text`` atomically: a temporary file
    is written and fsynced, then renamed over it."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_state(run_dir: str) -> RunState:
    """The state of the run in ``run_dir``: its state.json once the run has
    ended, else the head and finalized iterations its journal holds. A last
    journal line with no newline is an append cut short and is dropped; any
    other line that does not decode, or a state.json that does not, raises
    ConfigError."""
    state_path = os.path.join(run_dir, STATE_FILE)
    journal = os.path.join(run_dir, JOURNAL_FILE)
    if os.path.exists(state_path) or not os.path.exists(journal):
        return read_record(state_path, RunState, "run state")
    try:
        with open(journal, "rb") as fh:
            *lines, _torn = fh.read().split(b"\n")
    except OSError as exc:
        raise ConfigError(f"cannot read journal {journal}: {exc}") from exc

    def decode(number: int, cls):
        try:
            return cls.from_dict(json.loads(lines[number - 1]))
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deeply.
        except (TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid journal {journal} line {number}: {exc}") from None

    if not lines:
        raise ConfigError(f"invalid journal {journal}: no run head")
    state = decode(1, RunState)
    if state.iterations:
        raise ConfigError(f"invalid journal {journal} line 1: "
                          "the run head holds iterations")
    state.iterations = [decode(n, IterationRecord) for n in range(2, len(lines) + 1)]
    return state


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
