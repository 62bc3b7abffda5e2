"""Composite score, normalization, selection, and group advantage."""

import math
import random

import pytest

from rtlopt.backend import PpaMetrics
from rtlopt.scoring import (
    CandidateScore,
    ScoreWeights,
    group_advantage,
    normalize,
    score,
    select_next,
)


def test_normalize_relative_change():
    assert normalize(-0.09, -0.27) == pytest.approx((-0.09 + 0.27) / -0.27)
    assert normalize(110.0, 100.0) == pytest.approx(0.1)
    assert normalize(5.0, 5.0) == 0.0


def test_normalize_zero_baseline_guard():
    assert normalize(0.0, 0.0) == 0.0
    assert abs(normalize(3.0, 0.0)) <= 10.0
    assert abs(normalize(-1e9, 0.0)) <= 10.0


def test_score_weighted_sum_no_penalty():
    baseline = PpaMetrics(-0.2, -0.4, 100.0)
    candidate = PpaMetrics(-0.1, -0.2, 100.0)
    s = score(candidate, baseline, ScoreWeights())
    expected = 0.5 * normalize(-0.1, -0.2) + 0.35 * normalize(-0.2, -0.4)
    assert s.score == pytest.approx(expected)
    assert s.penalty == 0.0


def test_score_area_penalty_triggers_above_threshold():
    baseline = PpaMetrics(-0.2, -0.4, 100.0)
    no_pen = score(PpaMetrics(-0.1, -0.2, 110.0), baseline, ScoreWeights())
    assert no_pen.penalty == 0.0  # exactly 10% growth: not > threshold
    pen = score(PpaMetrics(-0.1, -0.2, 111.0), baseline, ScoreWeights())
    assert pen.penalty == 0.5
    assert pen.score == pytest.approx(
        0.5 * normalize(-0.1, -0.2) + 0.35 * normalize(-0.2, -0.4)
        + 0.15 * 0.11 + 0.5)


def test_lower_score_is_better_ordering():
    baseline = PpaMetrics(-0.2, -0.4, 100.0)
    better = score(PpaMetrics(-0.05, -0.1, 100.0), baseline, ScoreWeights())
    worse = score(PpaMetrics(-0.3, -0.6, 100.0), baseline, ScoreWeights())
    assert better.score < worse.score


def test_weights_validated():
    with pytest.raises(ValueError):
        ScoreWeights(alpha=-0.1)
    with pytest.raises(ValueError):
        ScoreWeights(area_penalty_threshold=0.0)


class _Cand:
    def __init__(self, sec_pass, value):
        self.sec_pass = sec_pass
        self.score = CandidateScore(0.0, 0.0, 0.0, 0.0, value)


def test_select_next_lowest_passing():
    group = [_Cand(True, -0.2), _Cand(False, -9.0), _Cand(True, -0.5)]
    assert select_next(group) is group[2]


def test_select_next_tie_prefers_earliest():
    group = [_Cand(True, -0.5), _Cand(True, -0.5)]
    assert select_next(group) is group[0]


def test_select_next_all_failing_is_none():
    group = [_Cand(False, -1.0), _Cand(False, -2.0)]
    assert select_next(group) is None


def test_group_advantage_example():
    advantages = group_advantage([-0.5, -0.2, 0.1])
    assert advantages[0] == pytest.approx(-1.2247448, abs=1e-6)
    assert advantages[1] == pytest.approx(0.0, abs=1e-12)
    assert advantages[2] == pytest.approx(1.2247448, abs=1e-6)


def test_group_advantage_degenerate_cases():
    assert group_advantage([0.3]) == (0.0,)
    assert group_advantage([0.3, 0.3, 0.3]) == (0.0, 0.0, 0.0)
    assert group_advantage([]) == ()


def test_group_advantage_standardized_properties():
    rng = random.Random(3)
    for trial in range(1000):
        n = rng.randrange(2, 17)
        scores = [rng.uniform(-2, 2) for _ in range(n)]
        if max(scores) - min(scores) < 1e-9:
            continue
        adv = group_advantage(scores)
        mean = sum(adv) / n
        std = math.sqrt(sum((a - mean) ** 2 for a in adv) / n)
        assert abs(mean) < 1e-9
        assert abs(std - 1.0) < 1e-9
        # invariance under translation and positive scaling
        shifted = group_advantage([s * 3.5 + 1.25 for s in scores])
        for a, b in zip(adv, shifted):
            assert a == pytest.approx(b, abs=1e-9)
