"""Spans around the package's public functions, installed from outside.

Every call site in `cdsl_lab` looks these functions up as module
attributes at call time (`dc.backward`, `nets.predict_probs`, and names
inside their own module such as randmix's `gate`), so replacing the
attribute catches every call. The wrappers only read arguments and
results and call the clock; they draw from no random stream.

A span is (name, start, end, parent index). A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans, self times and counts of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []  # indices of open spans, innermost last
        self._child_s: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span called `name`; observe(tracer, args, result) after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child = self._child_s.pop()
                self.spans[index] = (name, start, end, parent)
                self.self_s[name] += end - start - child
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += end - start
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


def _count_tape(tracer, args, result):
    tracer.counts["tape_nodes"] += len(args[0])
    tracer.counts.update("op." + node.op for node in args[0].nodes)


def _count_gate(tracer, args, keep):
    tracer.counts["gate_rows_in"] += int(keep.shape[0])
    tracer.counts["gate_rows_kept"] += int(keep.sum())


def _count_replay(tracer, args, result):
    tracer.counts["replay_rows"] += int(result[0].shape[0])


def _count_admitted(tracer, args, record):
    tracer.counts["admitted_rows"] += len(record["chosen"])


def targets():
    """(module, attribute, span name, observer) for every traced function."""
    from cdsl_lab import diffcore, labeler, memory, nets, objective, protocol, randmix, synthdata

    return [
        (protocol, "run_cdsl", "protocol.glue", None),
        (protocol, "write_results", "protocol.write", None),
        (diffcore, "backward", "diffcore.backward", _count_tape),
        (diffcore, "sgd_step", "diffcore.sgd", None),
        (objective, "build_context", "nets.taped_forward", None),
        (objective, "total_loss", "objective.loss", None),
        (nets, "predict_probs", "nets.infer", None),
        (nets, "feature_values", "nets.infer", None),
        (nets, "predict_labels", "protocol.eval", None),
        (randmix, "draw_ensemble", "randmix.draw", None),
        (randmix, "autoencode", "randmix.autoencode", None),
        (randmix, "gate", "randmix.gate", _count_gate),
        (randmix, "mix", "randmix.mix", None),
        (labeler, "assign_labels", "labeler.assign", None),
        (labeler, "knn_assign", "labeler.knn", None),
        (memory, "admit_domain", "memory.admit", _count_admitted),
        (memory, "replay_batch", "memory.replay", _count_replay),
        (synthdata, "generate", "synthdata.generate", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """The tracer's wrappers in place of the originals, restored on exit."""
    saved = []
    try:
        for module, attr, name, observe in targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
