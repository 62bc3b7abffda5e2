"""Confidence-tiered pattern-strategy skill library.

Each entry pairs a recurring bottleneck pattern with a transformation
strategy and stores only its evidence from finalized iteration records:
occurrence count, SEC-pass count, and the mean of the group-relative
advantage over passing applications. Its tier is derived from that evidence
when read; its recipe is the catalog strategy's docstring. A library keeps
the key of each iteration it distilled, the digest of that iteration's
canonical JSON, and merges only libraries whose keys are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .records import Settings, read_record
from .rewrites import STRATEGY_FUNCTIONS
from .timing import ROOT_CAUSE_PATTERN
from .trajectory import CANDIDATE_OK, IterationRecord, canonical_json

PATTERNS = frozenset(ROOT_CAUSE_PATTERN.values())
STRATEGIES = tuple(STRATEGY_FUNCTIONS)

TIER_HIGH = "high"
TIER_MEDIUM = "medium"
TIER_LOW = "low"
TIER_AVOID = "avoid"
TIERS = (TIER_HIGH, TIER_MEDIUM, TIER_LOW, TIER_AVOID)  # most trusted first

SCHEMA_VERSION = 3


class SkillError(ValueError):
    """A skill library that is not valid, or libraries that cannot merge."""


@dataclass
class Skill(Settings):
    pattern: str
    strategy: str
    occurrence_count: int = 0
    sec_pass_count: int = 0
    mean_advantage: float = 0.0

    @property
    def tier(self) -> str:
        return assign_tier(self)

    @property
    def skill_id(self) -> str:
        return f"{self.pattern}::{self.strategy}"

    @classmethod
    def from_dict(cls, d: dict) -> "Skill":
        skill = super().from_dict(d)
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
    distilled_iterations: list = field(default_factory=list)  # iteration digests

    def get(self, pattern: str, strategy: str) -> Skill | None:
        return self.entries.get((pattern, strategy))

    def sorted_entries(self) -> list[Skill]:
        return [self.entries[k] for k in sorted(self.entries)]

    def to_dict(self) -> dict:
        return StoredLibrary(SCHEMA_VERSION, self.sorted_entries(),
                             sorted(self.distilled_iterations)).to_dict()

    @classmethod
    def from_dict(cls, d: dict) -> "SkillLibrary":
        # The version is read first, so a file of another schema says so.
        version = d.get("version") if isinstance(d, dict) else None
        if version != SCHEMA_VERSION:
            raise SkillError(f"unsupported skill schema version {version!r}")
        stored = StoredLibrary.from_dict(d)
        lib = cls(distilled_iterations=stored.distilled_iterations)
        for skill in stored.entries:
            key = (skill.pattern, skill.strategy)
            if key in lib.entries:
                raise SkillError(f"duplicate entry {skill.skill_id}")
            lib.entries[key] = skill
        return lib


@dataclass
class StoredLibrary(Settings):
    """A skill library as its file stores it."""
    version: int
    entries: list[Skill]
    distilled_iterations: list[str] = field(default_factory=list)


def _fold(skill: Skill, occurrences: int, passes: int, advantage_sum: float):
    """Add evidence to ``skill``: counts sum, and the mean is weighted by pass
    count. ``advantage_sum`` totals the new passes' advantages."""
    skill.occurrence_count += occurrences
    old_passes = skill.sec_pass_count
    skill.sec_pass_count += passes
    if passes:
        skill.mean_advantage = ((skill.mean_advantage * old_passes + advantage_sum)
                                / skill.sec_pass_count)


def distill(iteration: IterationRecord, library: SkillLibrary, key: str) -> SkillLibrary:
    """Fold one finalized iteration's evidence into the library, in place.

    Evidence is each evaluated candidate that applied a catalog strategy to
    a diagnosed path, keyed by (that path's pattern, strategy).

    Batch update: advantages for one entry are summed over the whole
    iteration before folding, so candidate arrival order is irrelevant.
    Idempotent per ``key``, the digest of the iteration's canonical JSON
    that ``TrajectoryStore.finalize_iteration`` returns.
    """
    if not iteration.finalized:
        raise SkillError(f"iteration {iteration.index} is not finalized")
    if key in library.distilled_iterations:
        return library
    library.distilled_iterations.append(key)

    # (pattern, strategy) -> [occurrences, passing advantages]
    batch: dict[tuple[str, str], list] = {}
    for cand in iteration.candidates:
        if (cand.status != CANDIDATE_OK or cand.strategy is None
                or cand.path is None):
            continue
        entry_key = (iteration.diagnoses[cand.path].pattern, cand.strategy)
        entry = batch.setdefault(entry_key, [0, []])
        entry[0] += 1
        if cand.sec_pass:
            if cand.advantage is None:
                raise SkillError(f"iteration {iteration.index}: SEC-passing candidate "
                                 f"{cand.candidate_id} has no advantage")
            entry[1].append(cand.advantage)

    for (pattern, strategy), (occ, advs) in sorted(batch.items()):
        skill = library.entries.get((pattern, strategy))
        if skill is None:
            skill = library.entries[(pattern, strategy)] = Skill(pattern, strategy)
        _fold(skill, occ, len(advs), sum(advs))
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
        key=lambda s: (TIERS.index(s.tier), s.mean_advantage, s.strategy),
    )
    prohibitions = [s for s in hits if s.tier == TIER_AVOID]
    return MatchResult(tuple(recommendations), tuple(prohibitions))


def merge(libraries: list[SkillLibrary]) -> SkillLibrary:
    """Combine libraries distilled from disjoint iterations: counts sum, and
    means combine pass-count-weighted. Two libraries that distilled the same
    iteration would count its evidence twice, so that raises."""
    merged = SkillLibrary()
    for lib in libraries:
        for key in lib.distilled_iterations:
            if key in merged.distilled_iterations:
                raise SkillError(f"libraries share distilled iteration {key}; "
                                 "merging would count its evidence twice")
        merged.distilled_iterations.extend(lib.distilled_iterations)
        for key, skill in lib.entries.items():
            existing = merged.entries.get(key)
            if existing is None:
                merged.entries[key] = replace(skill)
            else:
                _fold(existing, skill.occurrence_count, skill.sec_pass_count,
                      skill.mean_advantage * skill.sec_pass_count)
    return merged


def export_library(library: SkillLibrary, path: str):
    with open(path, "w") as fh:
        fh.write(canonical_json(library.to_dict()))


def import_library(path: str) -> SkillLibrary:
    """Read a library file; one that is missing, unreadable or malformed
    raises ConfigError."""
    return read_record(path, SkillLibrary, "skill library")
