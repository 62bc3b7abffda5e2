"""Independent re-check of SEC passes with the reference simulator.

The program's SEC co-simulates with the numpy engine on exhaustive or
fixed-seed random stimulus. This re-check replays each passing candidate
against its golden design on the plain-Python engine
(``rtlopt.dsl.simulate``) over the same number of frames, using stimulus
the sampler is unlikely to draw: per input 0, 1, all-ones, MSB-only and
every constant of either design, plus and minus one; then seeded random
traces. A mismatch is a refutation of the SEC pass.
"""

from __future__ import annotations

import random

from rtlopt.dsl import RtlDesign, simulate

RANDOM_TRACES = 32


def _constants(design: RtlDesign) -> set[int]:
    return {node.value for _, expr in design.all_exprs() for node in expr.walk()
            if node.kind == "const"}


def directed_values(width: int, constants: set[int]) -> list[int]:
    mask = (1 << width) - 1
    values = {0, 1 & mask, mask, 1 << (width - 1)}
    for c in constants:
        values.update(v & mask for v in (c - 1, c, c + 1))
    return sorted(values)


def stimulus(golden: RtlDesign, candidate: RtlDesign, frames: int,
             rng: random.Random) -> list[list[dict[str, int]]]:
    """Directed traces first, then random ones; each trace has ``frames`` frames.

    Every directed value of every input appears in some frame of a
    "packed" trace (the inputs walk their value lists in step). "Hold"
    traces keep all inputs at 0, 1, all-ones or MSB-only for every frame.
    """
    inputs = golden.input_ports
    constants = _constants(golden) | _constants(candidate)
    lists = {p.name: directed_values(p.width, constants) for p in inputs}
    traces = []
    longest = max((len(v) for v in lists.values()), default=1)
    for start in range(0, longest, frames):
        traces.append([{p.name: lists[p.name][(start + f) % len(lists[p.name])]
                        for p in inputs} for f in range(frames)])
    for pick in (lambda w: 0, lambda w: 1, lambda w: (1 << w) - 1,
                 lambda w: 1 << (w - 1)):
        traces.append([{p.name: pick(p.width) for p in inputs}] * frames)
    for _ in range(RANDOM_TRACES):
        traces.append([{p.name: rng.getrandbits(p.width) for p in inputs}
                       for _ in range(frames)])
    return traces


def refute(golden: RtlDesign, candidate: RtlDesign, seed: int) -> str | None:
    """A description of the first output mismatch found, or None."""
    frames = max(len(golden.registers), len(candidate.registers)) + 2
    rng = random.Random(seed)
    for trace in stimulus(golden, candidate, frames, rng):
        want = simulate(golden, trace, frames)
        got = simulate(candidate, trace, frames)
        for f, (w, g) in enumerate(zip(want, got)):
            for port in sorted(w):
                if w[port] != g[port]:
                    return (f"output {port} frame {f}: golden {w[port]} candidate "
                            f"{g[port]} on inputs {trace[:f + 1]}")
    return None
