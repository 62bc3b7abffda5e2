"""Confidence-tiered pattern-strategy skill library.

Each entry pairs a recurring bottleneck pattern with a transformation
strategy and accumulates empirical statistics from finalized iteration
records: occurrence count, SEC-pass count, and the running mean of the
group-relative advantage over passing applications. Tiers are recomputed
from those statistics after every update.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .rewrites import STRATEGY_FUNCTIONS
from .timing import ROOT_CAUSE_PATTERN
from .trajectory import (
    CANDIDATE_SKIPPED,
    IterationRecord,
    canonical_json,
)

PATTERNS = frozenset(ROOT_CAUSE_PATTERN.values())
STRATEGIES = tuple(STRATEGY_FUNCTIONS)

TIER_HIGH = "high"
TIER_MEDIUM = "medium"
TIER_LOW = "low"
TIER_AVOID = "avoid"
_TIER_RANK = {TIER_HIGH: 0, TIER_MEDIUM: 1, TIER_LOW: 2, TIER_AVOID: 3}

SCHEMA_VERSION = 1

# Recipes attached to freshly created entries; refined notes accumulate on top.
STRATEGY_TEMPLATES = {
    "condition-precompute": "hoist the comparison feeding a select into its own 1-bit wire",
    "signal-replication": "duplicate the driver of a high-fanout wire and split its sinks",
    "selective-register-insertion": "duplicate an existing register and repartition its sinks",
    "tree-rebalance": "reassociate a skewed chain of one associative operator into a balanced tree",
    "common-subexpression-extraction": "factor a repeated subexpression into a shared wire",
    "mux-restructure": "convert a one-hot priority mux chain into a balanced selection tree",
    "decomposition": "split a deep assign into staged intermediate wires",
    "constant-fold": "evaluate constant subexpressions and simplify identities",
}


class SkillError(Exception):
    pass


@dataclass
class Skill:
    pattern: str
    strategy: str
    occurrence_count: int = 0
    sec_pass_count: int = 0
    mean_advantage: float = 0.0
    tier: str = TIER_LOW
    template: str = ""
    notes: str = ""

    @property
    def skill_id(self) -> str:
        return f"{self.pattern}::{self.strategy}"

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "strategy": self.strategy,
            "occurrence_count": self.occurrence_count,
            "sec_pass_count": self.sec_pass_count,
            "mean_advantage": self.mean_advantage,
            "tier": self.tier,
            "template": self.template,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Skill":
        skill = cls(**d)
        if skill.pattern not in PATTERNS:
            raise SkillError(f"unknown pattern {skill.pattern!r}")
        if skill.strategy not in STRATEGIES:
            raise SkillError(f"unknown strategy {skill.strategy!r}")
        if skill.sec_pass_count > skill.occurrence_count:
            raise SkillError(
                f"{skill.skill_id}: sec_pass_count exceeds occurrence_count")
        return skill


def assign_tier(skill: Skill) -> str:
    occ = skill.occurrence_count
    r = skill.sec_pass_count / occ if occ else 0.0
    m = skill.mean_advantage
    if occ >= 2 and (r < 0.5 or m >= 0.5):
        return TIER_AVOID
    if occ >= 3 and r >= 0.8 and m <= -0.5:
        return TIER_HIGH
    if occ >= 2 and r >= 0.6 and m < 0:
        return TIER_MEDIUM
    return TIER_LOW


@dataclass
class SkillLibrary:
    entries: dict = field(default_factory=dict)  # (pattern, strategy) -> Skill
    version: int = SCHEMA_VERSION
    provenance: list = field(default_factory=list)       # contributing run ids
    distilled_iterations: list = field(default_factory=list)  # [run_id, t] keys

    def get(self, pattern: str, strategy: str) -> Skill | None:
        return self.entries.get((pattern, strategy))

    def sorted_entries(self) -> list[Skill]:
        return [self.entries[k] for k in sorted(self.entries)]

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "provenance": sorted(self.provenance),
            "distilled_iterations": sorted(map(list, self.distilled_iterations)),
            "entries": [s.to_dict() for s in self.sorted_entries()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SkillLibrary":
        if d.get("version") != SCHEMA_VERSION:
            raise SkillError(f"unsupported skill schema version {d.get('version')!r}")
        lib = cls(version=d["version"], provenance=list(d.get("provenance", [])),
                  distilled_iterations=[tuple(k) for k in d.get("distilled_iterations", [])])
        for entry in d["entries"]:
            skill = Skill.from_dict(entry)
            key = (skill.pattern, skill.strategy)
            if key in lib.entries:
                raise SkillError(f"duplicate entry {skill.skill_id}")
            lib.entries[key] = skill
        return lib


def distill(iteration: IterationRecord, library: SkillLibrary,
            run_id: str = "") -> SkillLibrary:
    """Fold one finalized iteration's evidence into the library, in place.

    Batch update: advantages for one entry are averaged over the whole
    iteration before merging, so candidate arrival order is irrelevant.
    Idempotent per (run_id, iteration index).
    """
    if not iteration.finalized:
        raise SkillError(f"iteration {iteration.index} is not finalized")
    key = (run_id, iteration.index)
    if key in library.distilled_iterations:
        return library
    library.distilled_iterations.append(key)
    if run_id and run_id not in library.provenance:
        library.provenance.append(run_id)

    # (pattern, strategy) -> [occurrences, passes, passing advantages]
    batch: dict[tuple[str, str], list] = {}
    for cand in iteration.candidates:
        if cand.status == CANDIDATE_SKIPPED:
            continue
        for event in cand.path_events:
            entry_key = (event.diagnosis.pattern, event.strategy)
            occ, passes, advs = batch.setdefault(entry_key, [0, 0, []])
            batch[entry_key][0] += 1
            if cand.sec_pass:
                batch[entry_key][1] += 1
                if cand.advantage is not None:
                    batch[entry_key][2].append(cand.advantage)

    for (pattern, strategy), (occ, passes, advs) in sorted(batch.items()):
        skill = library.entries.get((pattern, strategy))
        if skill is None:
            skill = Skill(pattern=pattern, strategy=strategy,
                          template=STRATEGY_TEMPLATES.get(strategy, ""))
            library.entries[(pattern, strategy)] = skill
        skill.occurrence_count += occ
        old_n = skill.sec_pass_count
        skill.sec_pass_count += passes
        if advs:
            total = skill.mean_advantage * old_n + sum(advs)
            # Advantage evidence only accrues from passing applications; the
            # denominator tracks how many carried an advantage value.
            skill.mean_advantage = total / (old_n + len(advs)) if (old_n + len(advs)) else 0.0
        skill.tier = assign_tier(skill)
    return library


@dataclass(frozen=True)
class MatchResult:
    recommendations: tuple[Skill, ...]
    prohibitions: tuple[Skill, ...]


def match(pattern: str, library: SkillLibrary) -> MatchResult:
    """Entries for a diagnosed pattern, ranked; avoid-tier ones split out."""
    hits = [s for s in library.sorted_entries() if s.pattern == pattern]
    recommendations = sorted(
        (s for s in hits if s.tier != TIER_AVOID),
        key=lambda s: (_TIER_RANK[s.tier], s.mean_advantage, s.strategy),
    )
    prohibitions = [s for s in hits if s.tier == TIER_AVOID]
    return MatchResult(tuple(recommendations), tuple(prohibitions))


def merge(libraries: list[SkillLibrary]) -> SkillLibrary:
    """Combine libraries: counts sum, means combine pass-count-weighted."""
    merged = SkillLibrary()
    for lib in libraries:
        if lib.version != SCHEMA_VERSION:
            raise SkillError(f"cannot merge schema version {lib.version}")
        for run_id in lib.provenance:
            if run_id not in merged.provenance:
                merged.provenance.append(run_id)
        for key in lib.distilled_iterations:
            if key not in merged.distilled_iterations:
                merged.distilled_iterations.append(key)
        for key, skill in lib.entries.items():
            existing = merged.entries.get(key)
            if existing is None:
                merged.entries[key] = replace(skill)
                continue
            if (skill.template and existing.template
                    and skill.template != existing.template):
                raise SkillError(
                    f"conflicting templates for {skill.skill_id}: "
                    f"{existing.template!r} vs {skill.template!r}")
            total_pass = existing.sec_pass_count + skill.sec_pass_count
            if total_pass:
                existing.mean_advantage = (
                    existing.mean_advantage * existing.sec_pass_count
                    + skill.mean_advantage * skill.sec_pass_count
                ) / total_pass
            existing.occurrence_count += skill.occurrence_count
            existing.sec_pass_count = total_pass
            existing.template = existing.template or skill.template
            if skill.notes and skill.notes not in existing.notes:
                existing.notes = (existing.notes + "\n" + skill.notes).strip()
    for skill in merged.entries.values():
        skill.tier = assign_tier(skill)
    return merged


def export_library(library: SkillLibrary, path: str):
    with open(path, "w") as fh:
        fh.write(canonical_json(library.to_dict()))


def import_library(path: str) -> SkillLibrary:
    with open(path) as fh:
        return SkillLibrary.from_dict(json.load(fh))
