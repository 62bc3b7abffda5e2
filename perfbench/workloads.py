"""Seeded design generators and the benchmark's workload definitions.

The seed only chooses names, operand order, bitwise-operator flavour
(and/or/xor share one delay and area entry) and constant values. Every
structural size is fixed per workload, so the timing model sees the same
graph under every seed and run time, quality and per-layer counts stay
comparable across seeds. The program receives only the generated RTL text.

Why each workload exists (which layer it stresses, and what it bypasses):

comb-chains   Flat chained adders of 8x8, 32x16 and 60x32 (terms x bits),
              10 iterations x 5 slots. Purely combinational: 2 SEC frames
              with up to 60 wide inputs, so every verdict is sampled and
              SEC stimulus generation is about half of each check. The loop
              really shortens the critical path here, so quality
              regressions show. Exercises SEC stimulus caching; bypasses
              the trajectory journal (few writes per second of SEC work).
seq-datapath  Registered reconvergent datapaths with a mux select, 6x16 and
              16x32 (registers x bits), 3 iterations x 5 slots. SEC runs
              8-18 frames, so golden and candidate simulation dominate and
              numpy lets pool threads overlap: the thread pool's trade-off
              shows opposite to comb-chains. Not listed in BENCHMARK.json:
              the run budget for three gated workloads allows about 35 s per
              run, and at that length comb-chains' run_s spread over ten
              seeds reached 0.25-0.30 on a shared 2-core host; two gated
              workloads get 58 s each. Run it by name (or with
              --workload all) for its end-to-end and per-layer numbers.
fsm-long      A one-hot FSM whose output decode is a one-hot mux cascade,
              40 iterations x 8 slots. Inputs are 2 bits wide, so every SEC
              verdict is exhaustive and cheap; persisting the trajectory
              dominates. The workload where an append-only journal should
              win and SEC caching should not. Not listed in BENCHMARK.json:
              its single-threaded, serialization-bound run time followed the
              host's minute-scale speed drift, and the run-to-run spread of
              run_s over ten seeds reached 0.25-0.28 on a shared 2-core
              host, above the largest bound a benchmark metric may have.
              Run it by name for per-layer trajectory numbers.
llm-mutants   The 32x16 chain driven through the real LLM client against an
              in-process loopback stub (one thread, replies derived from
              the seed and the prompt's module, see stub.py). About half the
              code replies are single-operator or constant mutations, so
              this is the only workload whose candidates fail SEC, build
              counterexamples and exercise the llm layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Bitwise operators with identical delay and area in the builtin model.
_BITWISE = ("&", "|", "^")


@dataclass(frozen=True)
class DesignSpec:
    label: str      # stable row name, e.g. "chain60x32"
    source: str     # generated RTL text


@dataclass(frozen=True)
class Workload:
    iterations: int
    slots: int
    llm: bool = False


WORKLOADS = {
    "comb-chains": Workload(iterations=10, slots=5),
    "seq-datapath": Workload(iterations=3, slots=5),
    "fsm-long": Workload(iterations=40, slots=8),
    "llm-mutants": Workload(iterations=10, slots=5, llm=True),
}


def _const(rng: random.Random, width: int) -> int:
    """A constant that no identity rule folds (not 0, 1, or all-ones)."""
    return rng.randrange(2, (1 << width) - 1)


def _decl(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


def adder_chain(rng: random.Random, terms: int, width: int) -> DesignSpec:
    """``y = x_p0 + x_p1 + ...``: a flat, left-associated chain of adders."""
    stem = rng.choice("abcdpqsuvw")
    names = [f"{stem}{i}" for i in range(terms)]
    order = names[:]
    rng.shuffle(order)
    ports = ", ".join(f"input {_decl(width)}{n}" for n in names)
    source = (f"module chain{terms}x{width}({ports}, output {_decl(width)}y);\n"
              f"  assign y = {' + '.join(order)};\n"
              "endmodule\n")
    return DesignSpec(f"chain{terms}x{width}", source)


def reconvergent_datapath(rng: random.Random, registers: int, width: int) -> DesignSpec:
    """A register pipeline whose stages reconverge and pass a mux select.

    Stage i reads stage i-1 twice (through a mux-selected, left-associated
    adder chain and through a bitwise mask), so every register cone is
    reconvergent and has a chain the loop can rebalance; the output
    reconverges the last two stages.
    """
    w = _decl(width)
    lines = [f"module dp{registers}x{width}(input {w}a, input {w}b, input sel, "
             f"output {w}y);"]
    regs = [f"r{i}" for i in range(registers)]
    for r in regs:
        lines.append(f"  reg {w}{r};")
    last, prev = regs[-1], regs[-2]
    op = rng.choice(_BITWISE)
    lines.append(f"  assign y = (sel ? ({last} + {prev}) : ({last} - b)) "
                 f"{op} ({prev} {rng.choice(_BITWISE)} {width}'d{_const(rng, width)});")
    lines.append("  always_ff begin")
    lines.append(f"    r0 <= a + b;")
    for i in range(1, registers):
        p = regs[i - 1]
        k = _const(rng, width)
        lines.append(f"    {regs[i]} <= (sel ? ((({p} + a) + b) + {width}'d{k}) : ({p} - a)) "
                     f"{rng.choice(_BITWISE)} ({p} {rng.choice(_BITWISE)} "
                     f"{width}'d{_const(rng, width)});")
    lines.append("  end")
    lines.append("endmodule")
    return DesignSpec(f"dp{registers}x{width}", "\n".join(lines) + "\n")


def onehot_fsm(rng: random.Random, width: int = 8) -> DesignSpec:
    """Four one-hot states, a 2-bit data input and an accumulator.

    The next-state logic and the output decode are priority mux cascades
    over ``st == one-hot`` compares. The seed picks the transition codes
    and the constants.
    """
    w = _decl(width)
    codes = rng.sample(range(4), 4)
    k = [_const(rng, width) for _ in range(6)]
    ops = [rng.choice(_BITWISE) for _ in range(3)]
    lines = [
        f"module fsm(input [1:0] d, output {w}y);",
        "  reg [3:0] st;",
        f"  reg {w}acc;",
        f"  assign y = (st == 4'd1) ? (acc + {width}'d{k[0]}) : "
        f"((st == 4'd2) ? (acc {ops[0]} {width}'d{k[1]}) : "
        f"((st == 4'd4) ? (acc {ops[1]} {width}'d{k[2]}) : "
        f"((st == 4'd8) ? ({width}'d{k[3]} - acc) : {width}'d{k[4]})));",
        "  always_ff begin",
        f"    st <= (st == 4'd1) ? ((d == 2'd{codes[0]}) ? 4'd2 : 4'd1) : "
        f"((st == 4'd2) ? ((d == 2'd{codes[1]}) ? 4'd4 : 4'd1) : "
        f"((st == 4'd4) ? ((d == 2'd{codes[2]}) ? 4'd8 : 4'd2) : "
        f"((st == 4'd8) ? ((d == 2'd{codes[3]}) ? 4'd1 : 4'd8) : 4'd1)));",
        f"    acc <= (d == 2'd{codes[0]}) ? (acc + {width}'d{k[5]}) : "
        f"((d == 2'd{codes[1]}) ? (acc {ops[2]} y) : acc);",
        "  end",
        "endmodule",
    ]
    return DesignSpec("fsm4x8", "\n".join(lines) + "\n")


def generate(workload: str, seed: int) -> list[DesignSpec]:
    """The workload's designs for ``seed``; the same seed gives the same text."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "comb-chains":
        return [adder_chain(rng, 8, 8), adder_chain(rng, 32, 16),
                adder_chain(rng, 60, 32)]
    if workload == "seq-datapath":
        return [reconvergent_datapath(rng, 6, 16), reconvergent_datapath(rng, 16, 32)]
    if workload == "fsm-long":
        return [onehot_fsm(rng)]
    if workload == "llm-mutants":
        return [adder_chain(rng, 32, 16)]
    raise KeyError(workload)
