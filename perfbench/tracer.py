"""In-memory span tracer wrapped around the package's layer boundaries.

Spans are recorded from outside the program: :meth:`Tracer.installed`
swaps each public callable for a timing wrapper at the place its caller
looks it up (module globals for functions, the class for methods) and
restores the originals on exit.  The wrappers only read arguments and
results, never consume randomness and never alter arrays, so a traced
run computes exactly what an untraced run computes.

A span is ``(name, start, end, parent, sample, overhead)``.  ``parent`` is
the index of the enclosing span (-1 at the top), ``sample`` the id of the
sample it belongs to (-1 outside samples), and ``overhead`` the time the
wrapper spent after ``end`` computing counts, which is charged to nobody:
a span's self time is its duration minus the intervals of its children,
overhead included.
"""

from __future__ import annotations

import contextlib
import csv
import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from lcsnn import engine, readout
from lcsnn.topology import DenseConnection, InhibitionMask, LocalConnection

NAME, START, END, PARENT, SAMPLE, OVERHEAD = range(6)

SAMPLE_SPANS = ("engine.sample", "readout.extract")


class Tracer:
    def __init__(self, n_lc: int, n_out: int):
        self.n_lc = n_lc
        self.n_out = n_out
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._samples = 0
        self._sample = -1  # id of the open sample span

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        if name in SAMPLE_SPANS:
            self._sample = self._samples
            self._samples += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._sample, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()
        if self.spans[idx][NAME] in SAMPLE_SPANS:
            self._sample = -1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        """Timing wrapper; ``count(args, result)`` runs after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, result)
                self.spans[idx][OVERHEAD] = perf_counter() - self.spans[idx][END]
            return result

        return traced

    # -- counters at the boundaries ------------------------------------

    def _count_encode(self, args, spikes):
        self.counts["encode.spikes"] += int(np.count_nonzero(spikes))
        self.counts["encode.ticks"] += spikes.shape[0]

    def _count_step(self, args, spikes):
        layer = "lc" if spikes.shape[0] == self.n_lc else "dec"
        self.counts[f"step.{layer}.spikes"] += int(np.count_nonzero(spikes))
        self.counts[f"step.{layer}.ticks"] += 1

    def _count_lc_forward(self, args, drive):
        conn = args[0]
        patches = conn.pre_index.size * 8  # gathered float64 patches, written then read
        self.counts["lc_forward.bytes"] += (
            conn.weights.nbytes + conn.pre_index.nbytes + 2 * patches + drive.nbytes
        )

    def _count_dense_forward(self, args, drive):
        conn, pre = args[0], args[1]
        self.counts["dense_forward.bytes"] += conn.weights.nbytes + pre.size * 8 + drive.nbytes

    def _count_eligibility(self, args, xi):
        # two outer-product temporaries written and read back, the sum written
        self.counts["eligibility.bytes"] += 5 * xi.nbytes
        self.counts["eligibility.nonzero"] += int(np.count_nonzero(xi))
        self.counts["eligibility.size"] += xi.size

    def _count_lc_eligibility(self, args, xi):
        self.counts["lc_eligibility.nonzero"] += int(np.count_nonzero(xi))
        self.counts["lc_eligibility.size"] += xi.size

    def _count_apply_rstdp(self, args, new_weights):
        self.counts["apply_rstdp.changed"] += int(np.count_nonzero(new_weights != args[0]))
        self.counts["apply_rstdp.size"] += new_weights.size

    def _count_decide(self, args, decision):
        counts = np.asarray(args[0])
        self.counts["decide.ties"] += int(np.count_nonzero(counts == counts.max()) > 1)
        self.counts["decide.calls"] += 1

    def _count_modulate(self, args, m):
        self.counts["modulate.calls"] += 1

    # -- installation ---------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, counter) for every traced boundary."""
        return [
            (engine, "run_sample", "engine.sample", None),
            (engine, "encode", "encoding.encode", self._count_encode),
            (engine, "step", "neurons.step", self._count_step),
            (engine, "update_traces", "plasticity.update_traces", None),
            (engine, "eligibility", "plasticity.eligibility", self._count_eligibility),
            (engine, "lc_eligibility", "plasticity.lc_eligibility", self._count_lc_eligibility),
            (engine, "apply_stdp", "plasticity.apply_stdp", None),
            (engine, "apply_rstdp", "plasticity.apply_rstdp", self._count_apply_rstdp),
            (engine, "normalize_incoming", "plasticity.normalize", None),
            (engine, "decide", "engine.decide", self._count_decide),
            (engine, "modulate", "reward.modulate", self._count_modulate),
            (readout, "extract_features", "readout.extract", None),
            (readout, "encode", "encoding.encode", self._count_encode),
            (readout, "step", "neurons.step", self._count_step),
            (LocalConnection, "forward", "topology.lc_forward", self._count_lc_forward),
            (DenseConnection, "forward", "topology.dense_forward", self._count_dense_forward),
            (InhibitionMask, "drive", "topology.inhibition", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name, count in self._targets():
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # -- analysis -------------------------------------------------------

    def _children_and_stages(self) -> tuple[list[float], list[str]]:
        """Time covered by each span's children, and each span's top-level ancestor."""
        child = [0.0] * len(self.spans)
        stage: list[str] = []
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START] + s[OVERHEAD]
            stage.append(s[NAME] if s[PARENT] < 0 else stage[s[PARENT]])
        return child, stage

    def stage_profile(self) -> dict[str, dict[str, list[float]]]:
        """Per top-level span: {span name: [self seconds, calls]} of it and its descendants."""
        child, stage = self._children_and_stages()
        profile: dict[str, dict[str, list[float]]] = {}
        for s, c, top in zip(self.spans, child, stage):
            row = profile.setdefault(top, {}).setdefault(s[NAME], [0.0, 0])
            row[0] += s[END] - s[START] - c
            row[1] += 1
        return profile

    def durations(self, name: str, stage: str) -> list[float]:
        """Durations of ``name`` spans under the top-level span ``stage``."""
        _, stages = self._children_and_stages()
        return [s[END] - s[START] for s, top in zip(self.spans, stages)
                if s[NAME] == name and top == stage]

    def write_csv(self, path: Path, t0: float) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "sample", "overhead_s"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                            s[PARENT], s[SAMPLE], f"{s[OVERHEAD]:.9f}"])
