"""Span recording around calls into the adamoge modules, from outside.

A :class:`Tracer` replaces public functions and methods of the package with
wrappers that record one span per call: name, start, end, the enclosing
span and the step it belongs to.  The wrappers are installed only while a
traced operation runs (``with tracer.installed():``), so untraced
operations in the same process run the original code.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from adamoge import autodiff, checkpoint, data, fourier, moge, training
from adamoge.filterbank import FilterBank

# fields of one span record
NAME, START, END, PARENT, STEP, INFO = range(6)


def _fourier_rfft_info(args, out):
    x = args[0]
    return {"shape": list(x.shape), "work": int(x.size)}


def _fourier_irfft_info(args, out):
    re, n = args[0], args[2]
    return {"shape": list(re.shape), "n": int(n), "work": int(re.size // re.shape[-1] * n)}


def _gate_info(args, out):
    decision = out[0]
    return {"k_sum": int(decision.k.sum()), "rows": int(decision.mask.size),
            "samples": int(decision.k.size)}


def _expert_out_info(args, out):
    return {"bytes": int(out.value.nbytes)}


class Tracer:
    """In-memory span recorder plus the table of wrapped adamoge entry points."""

    def __init__(self):
        self.spans: list[list] = []
        self.step: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._patch(fourier, "rfft", "fourier.rfft", _fourier_rfft_info)
        self._patch(fourier, "irfft", "fourier.irfft", _fourier_irfft_info)
        # moge looks these up in its own namespace
        self._patch(moge, "spectrum_of", "spectral.spectrum_of")
        self._patch(moge, "summarize", "spectral.summarize")
        self._patch(FilterBank, "apply", "filterbank.apply")
        self._patch(moge.AdaMoGeBlock, "forward", "moge.block")
        self._patch(moge.AdaMoGeBlock, "gate_decision", "moge.gate_decision", _gate_info)
        self._patch(moge.AdaMoGeBlock, "experts_forward", "moge.experts_forward",
                    _expert_out_info)
        self._patch(autodiff, "masked_weighted_sum", "moge.mix")
        self._patch(autodiff, "complex_expert_map", "autodiff.complex_expert_map")
        self._patch(autodiff.Tape, "backward", "autodiff.backward")
        self._patch(training.Adam, "step", "training.adam_step")
        self._patch(training, "evaluate", "training.evaluate")
        self._patch(data, "load_csv", "data.load_csv")
        self._patch(data, "prepare", "data.prepare")
        self._patch(checkpoint, "load_into", "checkpoint.load")
        # evaluate draws its batches through its own module global
        original_iter = training.iter_windows

        def traced_iter_windows(*args, **kwargs):
            return self.iterate("data.iter_windows", original_iter(*args, **kwargs))

        self._patches.append((training, "iter_windows", original_iter, traced_iter_windows))

    def _patch(self, owner, attr: str, name: str, info=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.spans[idx][INFO] = info(args, out)
            return out

        self._patches.append((owner, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """Route calls through the recording wrappers for the block's duration."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.step, None])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def iterate(self, name: str, items):
        """Yield from ``items`` with one span around each item drawn."""
        items = iter(items)
        while True:
            idx = self.open(name)
            try:
                item = next(items)
            except StopIteration:
                self.close(idx)
                self.spans.pop()  # the exhausted draw produced no batch
                return
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            yield item

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step, "info": info}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def inside(spans: list[list], idx: int, name: str) -> bool:
    """True if an ancestor of span ``idx`` is named ``name``."""
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
