"""Candidate scoring and group-relative advantage.

Scores combine baseline-normalized WNS/TNS/area with a flat penalty for
excessive area growth; lower is better. Advantages standardize the scores
of SEC-passing siblings within one iteration group, so they are invariant
under translation and positive scaling of the raw scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .backend import PpaMetrics
from .records import Record, Settings

NORMALIZE_CAP = 10.0
_ZERO = 1e-9


@dataclass(frozen=True)
class ScoreWeights(Settings):
    alpha: float = 0.5
    beta: float = 0.35
    gamma: float = 0.15
    area_penalty: float = 0.5
    area_penalty_threshold: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.area_penalty_threshold <= 0:
            raise ValueError("area_penalty_threshold must be > 0")


@dataclass(frozen=True)
class CandidateScore(Record):
    wns_norm: float
    tns_norm: float
    area_norm: float
    penalty: float
    score: float


def normalize(value: float, baseline: float) -> float:
    """Relative change vs the frozen baseline, guarded near baseline zero."""
    if abs(baseline) < _ZERO:
        if abs(value) < _ZERO:
            return 0.0
        return math.copysign(NORMALIZE_CAP, value)
    return (value - baseline) / baseline


def score(metrics: PpaMetrics, baseline: PpaMetrics,
          weights: ScoreWeights = ScoreWeights()) -> CandidateScore:
    wns_norm = normalize(metrics.wns, baseline.wns)
    tns_norm = normalize(metrics.tns, baseline.tns)
    area_norm = normalize(metrics.area, baseline.area)
    penalty = weights.area_penalty if area_norm > weights.area_penalty_threshold else 0.0
    total = (weights.alpha * wns_norm + weights.beta * tns_norm
             + weights.gamma * area_norm + penalty)
    return CandidateScore(wns_norm, tns_norm, area_norm, penalty, total)


def select_next(group):
    """The SEC-passing candidate with the lowest score, earliest on ties, or
    None when none pass. Entries expose ``sec_pass`` and a ``CandidateScore``
    ``score``."""
    passing = (candidate for candidate in group if candidate.sec_pass)
    return min(passing, key=lambda candidate: candidate.score.score, default=None)


def group_advantage(scores: list[float]) -> tuple[float, ...]:
    """Population standardization of a group's scores, one advantage each.

    Degenerate groups (size <= 1 or zero spread) get all-zero advantages.
    """
    if not scores:
        return ()
    mean = sum(scores) / len(scores)
    var = sum((s - mean) ** 2 for s in scores) / len(scores)
    std = math.sqrt(var)
    if std < 1e-12 or len(scores) <= 1:
        return tuple(0.0 for _ in scores)
    return tuple((s - mean) / std for s in scores)
