"""Candidate-group generation from diagnoses and the skill library.

A group of N proposals mixes exploitation (skill-guided transformations
matched to diagnosed patterns, in library rank order) with exploration
(catalog strategies not yet proven on the pattern, or LLM-authored
rewrites when an endpoint is configured). Fully deterministic without an
LLM; never emits two byte-identical candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsl import RtlDesign, print_design
from .rewrites import STRATEGY_FUNCTIONS, NotApplicable, apply_strategy
from .skills import SkillLibrary, match
from .timing import BottleneckDiagnosis

PROVENANCE_SKILL = "skill-guided"
PROVENANCE_RULE = "rule"
PROVENANCE_LLM = "llm"


@dataclass(frozen=True)
class LlmSettings:
    base_url: str
    model: str
    credential_env: str = "RTLOPT_LLM_TOKEN"
    timeout_s: float = 120.0
    max_retries: int = 2

    def to_dict(self) -> dict:
        return {"base_url": self.base_url, "model": self.model,
                "credential_env": self.credential_env,
                "timeout_s": self.timeout_s, "max_retries": self.max_retries}

    @classmethod
    def from_dict(cls, d: dict) -> "LlmSettings":
        return cls(**d)


@dataclass(frozen=True)
class ProposerConfig:
    n_candidates: int = 5
    exploration_fraction: float = 0.4
    llm: LlmSettings | None = None

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not 0.0 <= self.exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")

    def to_dict(self) -> dict:
        d = {"n_candidates": self.n_candidates,
             "exploration_fraction": self.exploration_fraction}
        if self.llm is not None:
            d["llm"] = self.llm.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProposerConfig":
        if d.get("llm") is not None:
            d = {**d, "llm": LlmSettings.from_dict(d["llm"])}
        return cls(**d)


@dataclass
class Proposal:
    design: RtlDesign | None
    provenance: str                     # skill-guided | rule | llm | skipped
    strategy: str | None
    diagnosis: BottleneckDiagnosis | None
    skill_id: str | None = None
    rationale: str = ""

    @property
    def skipped(self) -> bool:
        return self.design is None

    @property
    def source(self) -> str:
        return print_design(self.design) if self.design else ""


def _region_of(diagnosis: BottleneckDiagnosis | None):
    if diagnosis is None:
        return None
    r = diagnosis.rtl_region
    if r.confidence == "heuristic-failed":
        return None
    return (r.start_line, r.end_line)


def _try_strategy(parent: RtlDesign, strategy: str,
                  diagnosis: BottleneckDiagnosis | None) -> RtlDesign | None:
    region = _region_of(diagnosis)
    try:
        return apply_strategy(parent, strategy, region)
    except NotApplicable:
        if region is None:
            return None
    try:
        return apply_strategy(parent, strategy, None)  # widen to whole design
    except NotApplicable:
        return None


def propose_group(parent: RtlDesign, diagnoses: list[BottleneckDiagnosis],
                  library: SkillLibrary, config: ProposerConfig,
                  llm_client=None) -> list[Proposal]:
    """Build N proposals: skill-guided slots first, then exploratory ones."""
    n = config.n_candidates
    skill_slots = math.ceil((1.0 - config.exploration_fraction) * n)
    proposals: list[Proposal] = []
    seen_sources = {print_design(parent)}
    tried: set[tuple[str | None, str]] = set()  # (pattern, strategy)

    def emit(design: RtlDesign | None, provenance: str, strategy, diagnosis,
             skill_id=None, rationale="") -> bool:
        if design is None:
            return False
        source = print_design(design)
        if source in seen_sources:
            return False
        seen_sources.add(source)
        proposals.append(Proposal(design, provenance, strategy, diagnosis,
                                  skill_id=skill_id, rationale=rationale))
        return True

    diag_list = list(diagnoses) if diagnoses else [None]

    # Exploitation: walk matched skills in rank order, cycling over diagnoses.
    if diagnoses:
        queues = []
        for diagnosis in diagnoses:
            result = match(diagnosis.pattern, library)
            queues.append([(s, diagnosis) for s in result.recommendations])
        cursor = 0
        while len(proposals) < skill_slots and any(queues):
            queue = queues[cursor % len(queues)]
            cursor += 1
            while queue:
                skill, diagnosis = queue.pop(0)
                key = (diagnosis.pattern, skill.strategy)
                if key in tried:
                    continue
                tried.add(key)
                design = _try_strategy(parent, skill.strategy, diagnosis)
                if emit(design, PROVENANCE_SKILL, skill.strategy, diagnosis,
                        skill_id=skill.skill_id,
                        rationale=f"library {skill.tier}-tier match for {diagnosis.pattern}"):
                    break
            if not any(queues):
                break

    # Exploration: catalog strategies not yet tried on the pattern, or the LLM.
    explore_cursor = 0
    while len(proposals) < n:
        diagnosis = diag_list[explore_cursor % len(diag_list)]
        explore_cursor += 1
        pattern = diagnosis.pattern if diagnosis else None
        progressed = False
        if llm_client is not None:
            proposal = llm_client.propose(parent, diagnosis, library)
            if proposal is not None and emit(proposal.design, PROVENANCE_LLM,
                                             proposal.strategy, diagnosis,
                                             rationale=proposal.rationale):
                continue
        for strategy in STRATEGY_FUNCTIONS:
            key = (pattern, strategy)
            if key in tried:
                continue
            tried.add(key)
            design = _try_strategy(parent, strategy, diagnosis)
            if emit(design, PROVENANCE_RULE, strategy, diagnosis,
                    rationale=f"exploratory {strategy}"):
                progressed = True
                break
        if not progressed:
            # Exhausted: fill the remaining slots with explicit no-op markers.
            while len(proposals) < n:
                proposals.append(Proposal(None, "skipped", None, diagnosis,
                                          rationale="no untried applicable strategy"))
            break
    return proposals
