"""Spans around calls into each rtlopt layer, recorded from outside the program.

The modules bind names with ``from ... import``, so each wrapper is installed
where the caller looks the name up (``rtlopt.orchestrator.diagnose``, not
``rtlopt.timing.diagnose``). Spans live on a thread-local stack because
``evaluate_group`` evaluates on a thread pool; a span's self time is its
duration minus that of the spans nested in it on the same thread. Spans are
kept in memory and only aggregated, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

import rtlopt.backend
import rtlopt.llm
import rtlopt.orchestrator
import rtlopt.proposer
import rtlopt.rewrites
from rtlopt.backend import SEC_EXHAUSTIVE, SEC_BOUNDED
from rtlopt.dsl import CompiledDesign
from rtlopt.trajectory import TrajectoryStore

# Layers reported as <layer>.calls and <layer>.self_ms, in report order.
LAYERS = (
    "timing.diagnose",
    "proposer.propose_group",
    "rewrites.apply_strategy",
    "dsl.parse",
    "dsl.print",
    "skills.match",
    "skills.distill",
    "llm.propose",
    "orchestrator.evaluate_group",
    "backend.evaluate",
    "backend.synthesize",
    "backend.sec",
    "backend.sec.golden_sim",
    "backend.sec.candidate_sim",
    "scoring",
    "trajectory.begin_iteration",
    "trajectory.record_candidate",
    "trajectory.finalize_iteration",
    "trajectory.persist",
    "trajectory.save_design",
)


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on ``remove``."""

    def __init__(self, goldens):
        self.goldens = goldens          # ids of the workload's original designs
        self.spans: list[tuple] = []    # (run, layer, parent, thread, start, end, self)
        self.counts: Counter = Counter()  # (run, name) -> count
        self.run = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # --- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[self.run, name] += n

    def _wrap(self, fn, layer, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            name = layer(args) if callable(layer) else layer
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if observe is not None:
                    observe(args, None, False)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((tracer.run, name, parent, threading.get_ident(),
                                     start, end, end - start - frame[1]))
            if observe is not None:
                observe(args, result, True)
            return result

        return wrapper

    def _patch(self, owner, attr: str, layer, observe=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, observe))

    def _counter(self, attempts: str, hits: str, hit):
        def observe(args, result, ok):
            self.count(attempts)
            if ok and hit(result):
                self.count(hits)
        return observe

    def _sec_observe(self, args, verdict, ok):
        self.count("backend.sec.checks")
        if ok:
            self.count("backend.sec.passed", int(verdict.passed))
            self.count("backend.sec.exhaustive", int(verdict.mode == SEC_EXHAUSTIVE))
            self.count("backend.sec.sampled", int(verdict.mode == SEC_BOUNDED))

    def _fill_observe(self, args, proposals, ok):
        if ok:
            self.count("proposer.slots", len(proposals))
            self.count("proposer.filled", sum(not p.skipped for p in proposals))

    def _sim_layer(self, args):
        golden = id(args[0].design) in self.goldens
        return "backend.sec.golden_sim" if golden else "backend.sec.candidate_sim"

    def install(self):
        orch, prop, rew, llm, be = (rtlopt.orchestrator, rtlopt.proposer,
                                    rtlopt.rewrites, rtlopt.llm, rtlopt.backend)
        for owner, attr, layer in (
            (orch, "select_critical_paths", "timing.diagnose"),
            (orch, "diagnose", "timing.diagnose"),
            (orch, "evaluate_group", "orchestrator.evaluate_group"),
            (orch, "score", "scoring"),
            (orch, "group_advantage", "scoring"),
            (orch, "select_next", "scoring"),
            (orch, "distill", "skills.distill"),
            (orch, "parse", "dsl.parse"),
            (prop, "print_design", "dsl.print"),
            (prop, "match", "skills.match"),
            (rew, "parse", "dsl.parse"),
            (rew, "print_design", "dsl.print"),
            (llm, "parse", "dsl.parse"),
            (llm, "print_design", "dsl.print"),
            (llm, "match", "skills.match"),
            (be, "evaluate", "backend.evaluate"),
            (be, "synthesize", "backend.synthesize"),
        ):
            self._patch(owner, attr, layer)
        self._patch(orch, "propose_group", "proposer.propose_group",
                    self._fill_observe)
        self._patch(prop, "apply_strategy", "rewrites.apply_strategy", self._counter(
            "rewrites.attempts", "rewrites.applied", lambda r: True))
        self._patch(llm.LlmClient, "propose", "llm.propose", self._counter(
            "llm.requests", "llm.accepted", lambda r: r is not None))
        self._patch(be, "check_equivalence", "backend.sec", self._sec_observe)
        self._patch(CompiledDesign, "run", self._sim_layer)
        for method in ("begin_iteration", "record_candidate", "finalize_iteration",
                       "persist", "save_design"):
            self._patch(TrajectoryStore, method, f"trajectory.{method}")
        # Every state.json write goes through _persist_locked; count it without
        # a span so the public methods' self time keeps the serialization.
        persist = TrajectoryStore._persist_locked
        self._saved.append((TrajectoryStore, "_persist_locked", persist))

        def counted(store):
            persist(store)
            self.count("trajectory.writes")
            self.count("trajectory.bytes", os.path.getsize(store.state_path))
        TrajectoryStore._persist_locked = counted

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- aggregation ----------------------------------------------------------

    def layer_totals(self, run: int) -> dict[str, dict[str, float]]:
        """calls, self_ms and total_ms per layer for one traced run."""
        out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        for r, layer, _, _, start, end, self_s in self.spans:
            if r != run:
                continue
            row = out[layer]
            row["calls"] += 1
            row["self_ms"] += self_s * 1e3
            row["total_ms"] += (end - start) * 1e3
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for run, layer, parent, thread, start, end, self_s in self.spans:
                fh.write(json.dumps({"run": run, "layer": layer, "parent": parent,
                                     "thread": thread, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")
