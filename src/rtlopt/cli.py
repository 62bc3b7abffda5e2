"""Command-line surface: optimize, eval, show, skills, report.

A config file is one ``RunConfig`` record, the object a run stores under
``config`` in its state.json, so that object reproduces the run. Every
default matches the built-in evaluation setup, so ``{}`` is a valid run.
``show`` and ``report`` read a run through ``trajectory.load_state``: a
finished run's state.json, or the journal a stopped run left.

Exit codes: 0 success, 1 usage or configuration error (an input that cannot
be read or is not valid, or a file that cannot be written), 2 baseline
evaluation failure, 3 internal error. Commands raise; ``main`` maps the
exception's type to its code in ``EXIT_CODES`` and reports it on one stderr
line. An external backend is checked when the config is loaded (exit 1); a
tool that fails or times out during ``eval`` or a baseline evaluation exits 2.
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
from .records import ConfigError, read_record
from .trajectory import CANDIDATE_OK, RunState, canonical_json, load_state, running_best

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BASELINE = 2
EXIT_INTERNAL = 3


def load_config(path: str | None) -> RunConfig:
    return RunConfig() if path is None else read_record(path, RunConfig, "config")


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


def cmd_optimize(args) -> None:
    config = load_config(args.config)
    design = _load_design(args.design)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    library = sk.import_library(args.skills) if args.skills else sk.SkillLibrary()
    llm_client = (LlmClient(config.proposer.llm,
                            transcript_dir=os.path.join(args.out, "llm"))
                  if config.proposer.llm else None)
    result = run(design, config, args.out, library=library, llm_client=llm_client)

    state = load_state(result.run_dir)
    baseline = state.baseline
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


def cmd_eval(args) -> None:
    config = load_config(args.config)
    design = _load_design(args.design)
    golden = _load_design(args.golden) if args.golden else None
    if golden is not None:
        result, _ = be.evaluate(design, config.backend, be.GoldenSec(golden))
        payload = {**result.metrics.to_dict(), "sec_pass": result.sec_pass,
                   "sec_mode": result.sec_mode}
    else:
        payload = be.synthesize(design, config.backend)[0].to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_show(args) -> None:
    state = load_state(args.run)
    iterations = state.iterations
    if args.iteration is not None:
        if not 0 <= args.iteration < len(iterations):
            raise ConfigError(f"iteration {args.iteration} out of range "
                              f"[0, {len(iterations) - 1}]")
        iterations = [iterations[args.iteration]]
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


def cmd_skills(args) -> None:
    if args.action != "list" and args.library is None:
        raise ConfigError(f"skills {args.action} needs --library")
    if args.action in ("export", "merge") and args.output is None:
        raise ConfigError(f"skills {args.action} needs --output")
    if args.action == "list":
        library = sk.import_library(args.library) if args.library else sk.SkillLibrary()
        for skill in sorted(library.sorted_entries(), key=lambda s: sk.TIERS.index(s.tier)):
            rate = (skill.sec_pass_count / skill.occurrence_count
                    if skill.occurrence_count else 0.0)
            print(f"{skill.tier:<8}{skill.pattern:<24}{skill.strategy:<32}"
                  f"occ={skill.occurrence_count:<4}pass={rate:.2f} "
                  f"adv={skill.mean_advantage:+.3f}")
    elif args.action == "import":
        sk.import_library(args.library)  # validation is the point
        print("ok")
    elif args.action == "export":
        sk.export_library(sk.import_library(args.library), args.output)
    else:
        libraries = [sk.import_library(p) for p in [args.library] + args.extra]
        sk.export_library(sk.merge(libraries), args.output)


REPORT_COLUMNS = ["t", "best_wns", "best_tns", "best_area", "best_score",
                  "sec_pass_rate_cum"]


def report_rows(state: RunState) -> list[dict]:
    rows = []
    for it, best in zip(state.iterations, running_best(state)):
        metrics = best.candidate.eval.metrics if best.candidate else state.baseline
        rows.append({
            "t": it.index,
            "best_wns": metrics.wns,
            "best_tns": metrics.tns,
            "best_area": metrics.area,
            "best_score": best.score,
            "sec_pass_rate_cum": best.pass_rate,
        })
    return rows


def cmd_report(args) -> None:
    rows = report_rows(load_state(args.run))
    if args.format == "json":
        print(canonical_json(rows))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line and exit 1 (argparse's 2 means a failed
    baseline here); subcommand parsers are built from this class too."""

    def error(self, message):
        print(f"error: {self.prog}: {' '.join(message.split())}", file=sys.stderr)
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

    p = sub.add_parser("show", help="render the trajectory of a finished or stopped run")
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


# An exception of a listed type exits with its code, on one stderr line with
# its prefix; the first match wins, and any other exception is internal.
EXIT_CODES = (
    ((ConfigError, sk.SkillError, OSError), EXIT_CONFIG, ""),
    (BaselineEvaluationError, EXIT_BASELINE, "baseline evaluation failed: "),
    (be.PortInterfaceMismatch, EXIT_BASELINE, "port interface mismatch: "),
    ((be.BackendError, RtlError), EXIT_BASELINE, ""),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        code, prefix = next(((code, prefix) for kind, code, prefix in EXIT_CODES
                             if isinstance(exc, kind)),
                            (EXIT_INTERNAL, f"internal: {type(exc).__name__}: "))
        print(f"error: {prefix}{' '.join(str(exc).split())}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
