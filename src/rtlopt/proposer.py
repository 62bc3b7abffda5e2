"""Candidate-group generation from diagnoses and the skill library.

A group of N proposals mixes exploitation (skill-guided transformations
matched to diagnosed patterns, in library rank order) with exploration
(catalog strategies not yet proven on the pattern, or LLM-authored
rewrites when an endpoint is configured). Both try a strategy the same way:
at most once per (pattern, strategy), with one ``apply_strategy`` call that
is handed the diagnosis's line region, where the catalog looks for a site
first. Fully deterministic without an LLM; never emits two byte-identical
candidates.
"""

from __future__ import annotations

import math
import urllib.parse
from dataclasses import dataclass

from .dsl import RtlDesign, print_design
from .records import Settings
from .rewrites import STRATEGY_FUNCTIONS, NotApplicable, apply_strategy
from .skills import SkillLibrary, match
from .timing import BottleneckDiagnosis

PROVENANCE_SKILL = "skill-guided"
PROVENANCE_RULE = "rule"
PROVENANCE_LLM = "llm"


@dataclass(frozen=True)
class LlmSettings(Settings):
    base_url: str
    model: str
    credential_env: str = "RTLOPT_LLM_TOKEN"
    timeout_s: float = 120.0
    max_retries: int = 2

    def __post_init__(self):
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("llm.base_url must be an http or https URL with a host, "
                             f"got {self.base_url!r}")
        if self.timeout_s <= 0:
            raise ValueError("llm.timeout_s must be > 0")
        if self.max_retries < 0:
            raise ValueError("llm.max_retries must be >= 0")


@dataclass(frozen=True)
class ProposerConfig(Settings):
    n_candidates: int = 5
    exploration_fraction: float = 0.4
    llm: LlmSettings | None = None

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not 0.0 <= self.exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")


@dataclass
class Proposal:
    design: RtlDesign | None
    provenance: str                     # skill-guided | rule | llm | skipped
    strategy: str | None
    diagnosis: BottleneckDiagnosis | None
    rationale: str = ""

    @property
    def skipped(self) -> bool:
        return self.design is None


def _region_of(diagnosis: BottleneckDiagnosis | None):
    # A heuristic-failed region spans every line, which orders sites as None does.
    if diagnosis is None:
        return None
    return (diagnosis.rtl_region.start_line, diagnosis.rtl_region.end_line)


def propose_group(parent: RtlDesign, diagnoses: list[BottleneckDiagnosis],
                  library: SkillLibrary, config: ProposerConfig,
                  llm_client=None) -> list[Proposal]:
    """Build N proposals: skill-guided slots first, then exploratory ones.

    Every proposal's ``design.source`` is its canonical text, so duplicates
    are found by comparing sources.
    """
    n = config.n_candidates
    skill_slots = math.ceil((1.0 - config.exploration_fraction) * n)
    proposals: list[Proposal] = []
    seen_sources = {parent.source if parent.canonical else print_design(parent)}
    tried: set[tuple[str | None, str]] = set()  # (pattern, strategy)

    def emit(design: RtlDesign, provenance: str, strategy, diagnosis,
             rationale="") -> bool:
        if design.source in seen_sources:
            return False
        seen_sources.add(design.source)
        proposals.append(Proposal(design, provenance, strategy, diagnosis, rationale))
        return True

    def attempt(strategy: str, diagnosis, provenance: str, rationale="") -> bool:
        key = (diagnosis.pattern if diagnosis else None, strategy)
        if key in tried:
            return False
        tried.add(key)
        try:
            design = apply_strategy(parent, strategy, _region_of(diagnosis))
        except NotApplicable:
            return False
        return emit(design, provenance, strategy, diagnosis, rationale)

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
                if attempt(skill.strategy, diagnosis, PROVENANCE_SKILL,
                           f"library {skill.tier}-tier match for {diagnosis.pattern}"):
                    break

    # Exploration: catalog strategies not yet tried on the pattern, or the LLM.
    explore_cursor = 0
    while len(proposals) < n:
        diagnosis = diag_list[explore_cursor % len(diag_list)]
        explore_cursor += 1
        if llm_client is not None:
            proposal = llm_client.propose(parent, diagnosis, library)
            if proposal is not None and emit(proposal.design, PROVENANCE_LLM,
                                             proposal.strategy, diagnosis,
                                             rationale=proposal.rationale):
                continue
        if not any(attempt(strategy, diagnosis, PROVENANCE_RULE,
                           rationale=f"exploratory {strategy}")
                   for strategy in STRATEGY_FUNCTIONS):
            # Exhausted: fill the remaining slots with explicit no-op markers.
            while len(proposals) < n:
                proposals.append(Proposal(None, "skipped", None, diagnosis,
                                          rationale="no untried applicable strategy"))
            break
    return proposals
