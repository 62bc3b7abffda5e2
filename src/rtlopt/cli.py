"""Command-line surface: optimize, eval, show, skills, report.

A config file is one ``RunConfig`` record, the object a run stores under
``config`` in its state.json, so that object reproduces the run. Every
default matches the built-in evaluation setup, so ``{}`` is a valid run.

Exit codes: 0 success, 1 usage or configuration error, 2 baseline evaluation
failure, 3 internal error (an exception no command maps, reported on one
stderr line).
An external backend is checked when the config is loaded (exit 1); a tool
that fails or times out during ``eval`` or a baseline evaluation exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from . import backend as be
from . import skills as sk
from .dsl import RtlError, parse
from .llm import LlmClient
from .orchestrator import BaselineEvaluationError, RunConfig, run
from .trajectory import CANDIDATE_OK, RunState, canonical_json, running_best

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BASELINE = 2
EXIT_INTERNAL = 3


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return RunConfig.from_dict(raw)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _load_design(path: str):
    try:
        with open(path) as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read design {path}: {exc}") from exc
    try:
        return parse(source, filename=os.path.basename(path))
    except RtlError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_delta(value: float, pct: float) -> str:
    return f"{value:g} ({pct:.1f}%)"


def cmd_optimize(args) -> int:
    try:
        config = load_config(args.config)
        design = _load_design(args.design)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        library = sk.import_library(args.skills) if args.skills else sk.SkillLibrary()
    except sk.SkillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    llm_client = (LlmClient(config.proposer.llm,
                            transcript_dir=os.path.join(args.out, "llm"))
                  if config.proposer.llm else None)
    try:
        result = run(design, config, args.out, library=library, llm_client=llm_client)
    except BaselineEvaluationError as exc:
        print(f"error: baseline evaluation failed: {exc}", file=sys.stderr)
        return EXIT_BASELINE

    state = _load_state(result.run_dir)
    baseline = be.PpaMetrics.from_dict(state.baseline)
    # A rate over no evaluated candidate is not 0; result.json still says 0.0.
    pass_rate = (f"{result.sec_pass_rate:.2f}" if running_best(state)[-1].evaluated
                 else "n/a (0 evaluated)")
    best = result.best_metrics
    imp = result.improvement
    print(f"run dir: {result.run_dir}")
    print(f"{'metric':<8}{'baseline':>12}{'best':>22}")
    print(f"{'WNS':<8}{baseline.wns:>12g}{_fmt_delta(best.wns, imp['wns_pct']):>22}")
    print(f"{'TNS':<8}{baseline.tns:>12g}{_fmt_delta(best.tns, imp['tns_pct']):>22}")
    print(f"{'area':<8}{baseline.area:>12g}{_fmt_delta(best.area, imp['area_pct']):>22}")
    print(f"SEC pass rate: {pass_rate}  "
          f"convergence steps: {result.convergence_steps}  status: {result.status}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        config = load_config(args.config)
        design = _load_design(args.design)
        golden = _load_design(args.golden) if args.golden else None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if golden is not None:
            result, _ = be.evaluate(design, config.backend, be.GoldenSec(golden))
            payload = {**result.metrics.to_dict(), "sec_pass": result.sec_pass,
                       "sec_mode": result.sec_mode}
        else:
            payload = be.synthesize(design, config.backend)[0].to_dict()
    except be.PortInterfaceMismatch as exc:
        print(f"error: port interface mismatch: {exc}", file=sys.stderr)
        return EXIT_BASELINE
    except (be.BackendError, RtlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BASELINE
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _load_state(run_dir: str) -> RunState:
    path = os.path.join(run_dir, "state.json")
    if not os.path.exists(path):
        raise ConfigError(f"no state.json under {run_dir}")
    try:
        with open(path) as fh:
            return RunState.from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{path} is not a run state of this version: {exc!r}") from exc


def cmd_show(args) -> int:
    try:
        state = _load_state(args.run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.iteration is not None:
        if not 0 <= args.iteration < len(state.iterations):
            print(f"error: iteration {args.iteration} out of range "
                  f"[0, {len(state.iterations) - 1}]", file=sys.stderr)
            return EXIT_CONFIG
        iterations = [state.iterations[args.iteration]]
    else:
        iterations = state.iterations
    print(f"run {state.run_id} ({state.design_name}, {state.status})")
    for it in iterations:
        print(f"iteration {it.index}: parent {it.parent_id}, "
              f"selected {it.selected or '-'}")
        for cand in it.candidates:
            line = (f"  {cand.candidate_id} [{cand.status}] {cand.proposer_kind}"
                    f" sec={'pass' if cand.sec_pass else 'fail'}")
            if cand.score is not None:
                line += f" score={cand.score.score:+.4f}"
            if cand.advantage is not None:
                line += f" adv={cand.advantage:+.3f}"
            print(line)
            if cand.status == CANDIDATE_OK and cand.path is not None:
                d = it.diagnoses[cand.path]
                print(f"    path {d.path.startpoint}->{d.path.endpoint} "
                      f"{d.root_cause} -> {cand.strategy or cand.proposer_kind} "
                      f"({'sec-pass' if cand.sec_pass else 'sec-fail'})")
    return EXIT_OK


def cmd_skills(args) -> int:
    try:
        if args.action == "list":
            library = sk.import_library(args.library) if args.library else sk.SkillLibrary()
            for skill in sorted(library.sorted_entries(), key=lambda s: sk.TIERS.index(s.tier)):
                rate = (skill.sec_pass_count / skill.occurrence_count
                        if skill.occurrence_count else 0.0)
                print(f"{skill.tier:<8}{skill.pattern:<24}{skill.strategy:<32}"
                      f"occ={skill.occurrence_count:<4}pass={rate:.2f} "
                      f"adv={skill.mean_advantage:+.3f}")
            return EXIT_OK
        if args.action in ("export", "merge") and args.output is None:
            raise sk.SkillError(f"skills {args.action} needs --output")
        if args.action == "export":
            library = sk.import_library(args.library)
            sk.export_library(library, args.output)
            return EXIT_OK
        if args.action == "import":
            sk.import_library(args.library)  # validation is the point
            print("ok")
            return EXIT_OK
        if args.action == "merge":
            libraries = [sk.import_library(p) for p in [args.library] + args.extra]
            sk.export_library(sk.merge(libraries), args.output)
            return EXIT_OK
    except (sk.SkillError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(args.action)


REPORT_COLUMNS = ["t", "best_wns", "best_tns", "best_area", "best_score",
                  "sec_pass_rate_cum"]


def report_rows(state: RunState) -> list[dict]:
    baseline = be.PpaMetrics.from_dict(state.baseline)
    rows = []
    for it, best in zip(state.iterations, running_best(state)):
        metrics = best.candidate.eval.metrics if best.candidate else baseline
        rows.append({
            "t": it.index,
            "best_wns": metrics.wns,
            "best_tns": metrics.tns,
            "best_area": metrics.area,
            "best_score": best.score,
            "sec_pass_rate_cum": best.pass_rate,
        })
    return rows


def cmd_report(args) -> int:
    try:
        state = _load_state(args.run)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = report_rows(state)
    if args.format == "json":
        print(canonical_json(rows))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line and exit 1 (argparse's 2 means a failed
    baseline here); subcommand parsers are built from this class too."""

    def error(self, message):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtlopt",
        description="Closed-loop RTL timing optimization with a reusable skill library.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run the closed optimization loop")
    p.add_argument("--design", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--skills", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("eval", help="synthesize one design, optionally check equivalence")
    p.add_argument("--design", required=True)
    p.add_argument("--golden", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("show", help="render the trajectory of a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--iteration", type=int, default=None)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("skills", help="inspect or manage skill libraries")
    p.add_argument("action", choices=["list", "export", "import", "merge"])
    p.add_argument("--library", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("extra", nargs="*", default=[])
    p.set_defaults(func=cmd_skills)

    p = sub.add_parser("report", help="emit per-iteration metrics as CSV/JSON")
    p.add_argument("--run", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
