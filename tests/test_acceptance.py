"""Acceptance criteria 1-8, one test (or a small cluster) per criterion.

Criterion 1 asserts the published composite-score targets exactly as
stated. The norm checks pass; the two score targets are mutually
inconsistent under the documented formula (see the analysis shipped with
the repository notes), so those two assertions are expected to stay red
rather than be weakened.
"""

import json
import math
import os
import random
import time

import pytest

from corpus import (
    CHAIN_ADDER_8,
    CHAIN_ADDER_8_VARIANT,
    EQUIVALENT_PAIRS,
    NONEQUIVALENT_PAIRS,
    REWRITE_CORPUS,
)
from rtlopt.backend import PpaMetrics, check_equivalence, simulate_equivalence
from rtlopt.dsl import parse, simulate
from rtlopt.orchestrator import RunConfig, run
from rtlopt.rewrites import NotApplicable, STRATEGY_FUNCTIONS, apply_strategy
from rtlopt.scoring import group_advantage, score
from rtlopt.skills import distill, import_library
from rtlopt.trajectory import (
    RunState,
    canonical_json,
    convergence_steps,
    design_hash,
    running_best,
)


class TestCriterion1ScoreArithmetic:
    """Published vending/communicate reference rows through the score."""

    VENDING_BASE = PpaMetrics(-0.27, -1.02, 20488.0)
    VENDING_BEST = PpaMetrics(-0.09, -0.5, 20533.0)
    COMM_BASE = PpaMetrics(-0.4, -73.08, 2092.0)
    COMM_BEST = PpaMetrics(-0.26, -58.84, 2446.0)

    def test_vending_norms_match_printed_percentages(self):
        start = time.monotonic()
        s = score(self.VENDING_BEST, self.VENDING_BASE)
        assert s.wns_norm * 100 == pytest.approx(-66.7, abs=0.1)
        assert s.tns_norm * 100 == pytest.approx(-51.0, abs=0.1)
        assert s.area_norm * 100 == pytest.approx(0.2, abs=0.1)
        assert s.penalty == 0.0
        assert time.monotonic() - start < 1.0

    def test_vending_score_target(self):
        s = score(self.VENDING_BEST, self.VENDING_BASE)
        assert s.score == pytest.approx(-0.5118, abs=1e-4)

    def test_communicate_penalty_and_score_target(self):
        s = score(self.COMM_BEST, self.COMM_BASE)
        assert s.area_norm * 100 == pytest.approx(16.9, abs=0.1)
        assert s.penalty == 0.5
        assert s.score == pytest.approx(0.2823, abs=1e-4)


def _population_stddev(scores):
    """The spread ``group_advantage`` standardizes by, by the same formula."""
    mean = sum(scores) / len(scores)
    return math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))


def test_criterion_2_group_standardization():
    start = time.monotonic()
    rng = random.Random(0xD0)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 17)
        scores = [rng.uniform(-3, 3) for _ in range(n)]
        spread = _population_stddev(scores)
        if spread <= 0:
            continue
        checked += 1
        adv = group_advantage(scores)
        mean = sum(adv) / n
        pstd = (sum((a - mean) ** 2 for a in adv) / n) ** 0.5
        assert abs(mean) <= 1e-9
        assert abs(pstd - 1.0) <= 1e-9
        translated = group_advantage([s + 17.0 for s in scores])
        scaled = group_advantage([s * 4.25 for s in scores])
        for a, b, c in zip(adv, translated, scaled):
            assert a == pytest.approx(b, abs=1e-9)
            assert a == pytest.approx(c, abs=1e-9)
    assert group_advantage([1.5] * 6) == (0.0,) * 6
    assert time.monotonic() - start < 5.0


def test_criterion_3_sec_oracle_soundness(bcfg):
    start = time.monotonic()
    assert len(EQUIVALENT_PAIRS) == 10 and len(NONEQUIVALENT_PAIRS) == 10
    for golden_src, candidate_src in EQUIVALENT_PAIRS:
        golden, candidate = parse(golden_src), parse(candidate_src)
        verdict = simulate_equivalence(golden, candidate)
        assert verdict.mode == "exhaustive" and verdict.passed
        checked = check_equivalence(golden, candidate, bcfg)
        assert checked.mode in ("symbolic", "exhaustive") and checked.passed
    for golden_src, candidate_src in NONEQUIVALENT_PAIRS:
        golden, candidate = parse(golden_src), parse(candidate_src)
        verdict = check_equivalence(golden, candidate, bcfg)
        assert verdict.mode == "exhaustive" and not verdict.passed
        cex = verdict.counterexample
        assert cex is not None
        trace = list(cex.input_trace)
        g = simulate(golden, trace, len(trace))
        c = simulate(candidate, trace, len(trace))
        assert g[cex.frame][cex.output] != c[cex.frame][cex.output]
    assert time.monotonic() - start < 30.0


def test_criterion_4_rewrite_catalog_preservation(bcfg):
    start = time.monotonic()
    for source in REWRITE_CORPUS:
        parent = parse(source)
        lines = len(source.splitlines())
        for strategy in STRATEGY_FUNCTIONS:
            for region in [None] + [(n, n) for n in range(1, lines + 1)]:
                try:
                    child = apply_strategy(parent, strategy, region=region)
                except NotApplicable:
                    continue
                verdict = simulate_equivalence(parent, child)
                assert verdict.mode == "exhaustive"
                assert verdict.passed, (parent.name, strategy, region)
                checked = check_equivalence(parent, child, bcfg)
                assert checked.mode in ("symbolic", "exhaustive")
                assert checked.passed, (parent.name, strategy, region)
    assert time.monotonic() - start < 60.0


@pytest.fixture(scope="module")
def closed_loop_runs(tmp_path_factory):
    """One K=3/N=5 run pair on the seeded chained adder, reused below."""
    root = tmp_path_factory.mktemp("acceptance")
    design = parse(CHAIN_ADDER_8, "chain.rtl")
    config = RunConfig(iterations=3, candidates=5)
    first = run(design, config, str(root / "one"))
    second = run(design, config, str(root / "two"))
    return design, config, first, second


def test_criterion_5_end_to_end_closed_loop(closed_loop_runs, bcfg):
    start = time.monotonic()
    design, config, first, second = closed_loop_runs
    from rtlopt.backend import synthesize
    baseline, _ = synthesize(design, bcfg)
    assert baseline.wns == pytest.approx(-0.23)

    assert first.best_metrics.wns >= -0.02 - 1e-9
    assert first.best_metrics.area == pytest.approx(baseline.area)
    series = first.best_so_far
    assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    for name in ("state.json", "skills.json", "result.json"):
        a = open(os.path.join(first.run_dir, name), "rb").read()
        b = open(os.path.join(second.run_dir, name), "rb").read()
        assert a == b, f"{name} differs between seeded runs"
    assert time.monotonic() - start < 30.0


def test_criterion_6_skill_learning(closed_loop_runs, tmp_path):
    start = time.monotonic()
    design, config, first, _ = closed_loop_runs
    library = import_library(os.path.join(first.run_dir, "skills.json"))
    skill = library.get("wide-arithmetic", "tree-rebalance")
    assert skill is not None
    assert skill.occurrence_count >= 1
    assert skill.sec_pass_count == skill.occurrence_count  # pass rate 1.0
    assert skill.mean_advantage < 0

    # Re-distilling the same run's iterations must change nothing: each is
    # keyed by the digest of its canonical JSON, which state.json holds.
    state = RunState.from_dict(json.loads(
        open(os.path.join(first.run_dir, "state.json")).read()))
    before = library.to_dict()
    for it in state.iterations:
        distill(it, library, design_hash(canonical_json(it.to_dict())))
    assert library.to_dict() == before

    def steps_to_optimum(result):
        for t, value in enumerate(result.best_so_far):
            if value <= result.best_score + 1e-12:
                return t
        return len(result.best_so_far)

    variant = parse(CHAIN_ADDER_8_VARIANT, "chainv.rtl")
    cold = run(variant, config, str(tmp_path / "cold"))
    warm = run(variant, config, str(tmp_path / "warm"),
               library=import_library(os.path.join(first.run_dir, "skills.json")))
    assert warm.best_metrics.wns >= -0.02 - 1e-9
    assert steps_to_optimum(warm) <= steps_to_optimum(cold)
    assert time.monotonic() - start < 60.0


def test_criterion_7_metrics_bookkeeping(closed_loop_runs):
    _, _, first, _ = closed_loop_runs
    raw = open(os.path.join(first.run_dir, "state.json")).read()
    state = RunState.from_dict(json.loads(raw))
    assert running_best(state)[-1].pass_rate == first.sec_pass_rate
    assert convergence_steps(state) == first.convergence_steps
    assert canonical_json(state.to_dict()) == raw


def test_criterion_8_llm_contract_path(tmp_path, monkeypatch):
    """Stubbed endpoint: one valid rewrite, then malformed prose forever."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    rebalanced = CHAIN_ADDER_8.replace("((a + b) + c) + d", "(a + b) + (c + d)")
    responses = [f"```\n{rebalanced}```"]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 - http.server API
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            text = responses.pop(0) if responses else "no code block here"
            body = json.dumps(
                {"choices": [{"message": {"content": text}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        design_path = tmp_path / "chain.rtl"
        design_path.write_text(CHAIN_ADDER_8)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "iterations": 2,
            "proposer": {"n_candidates": 4, "exploration_fraction": 0.5,
                         "llm": {"base_url": f"http://127.0.0.1:{server.server_port}",
                                 "model": "stub", "max_retries": 1}},
        }))
        from rtlopt.cli import main
        code = main(["optimize", "--design", str(design_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "runs")])
        assert code == 0
        state = json.loads(open(
            str(tmp_path / "runs" / "chain-seed0" / "state.json")).read())
        kinds = {c["proposer_kind"]
                 for it in state["iterations"] for c in it["candidates"]}
        assert "llm" in kinds                     # valid response -> proposal
        assert kinds & {"rule", "skill-guided"}   # malformed -> rule fallback
    finally:
        server.shutdown()
        thread.join()
