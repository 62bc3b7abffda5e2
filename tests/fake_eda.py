"""A stand-in external toolchain built on the builtin backend.

    python fake_eda.py synth DESIGN_DIR TOP CLOCK_NS
        Synthesizes DESIGN_DIR/TOP.rtl, prints ``wns``, ``tns`` and ``area``
        one per line and writes timing_report.json (the interchange schema)
        to the working directory.
    python fake_eda.py sec DESIGN_DIR
        Checks DESIGN_DIR/candidate.rtl against DESIGN_DIR/golden.rtl and
        exits 0 when they are equivalent, 1 when they are not.

An external backend config calls it with templates such as
``PYTHON fake_eda.py synth {design_dir} {top} {clock_ns}`` and
``PYTHON fake_eda.py sec {design_dir}``, where PYTHON is an interpreter's
path, with ``metric_patterns=PATTERNS`` and
``report_files=("timing_report.json",)``.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rtlopt.backend import BackendConfig, check_equivalence, synthesize  # noqa: E402
from rtlopt.dsl import parse  # noqa: E402

PATTERNS = {"wns": r"^wns (\S+)$", "tns": r"^tns (\S+)$", "area": r"^area (\S+)$"}


def _load(path: str):
    with open(path) as fh:
        return parse(fh.read(), filename=os.path.basename(path))


def main(argv: list[str]) -> int:
    mode, design_dir = argv[0], argv[1]
    if mode == "synth":
        top, clock_ns = argv[2], float(argv[3])
        design = _load(os.path.join(design_dir, f"{top}.rtl"))
        metrics, report = synthesize(design, BackendConfig(clock_period=clock_ns))
        for key, value in metrics.to_dict().items():
            print(f"{key} {value!r}")
        with open("timing_report.json", "w") as fh:
            json.dump(report.to_dict(), fh)
        return 0
    if mode == "sec":
        golden = _load(os.path.join(design_dir, "golden.rtl"))
        candidate = _load(os.path.join(design_dir, "candidate.rtl"))
        return 0 if check_equivalence(golden, candidate, BackendConfig()).passed else 1
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
