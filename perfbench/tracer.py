"""Spans and counters attached to the gawm package from outside.

The tracer replaces public functions (and a few methods) with timing
wrappers, so nothing inside ``src/gawm`` has to know it is measured.
A function imported into several modules (``pose_features`` lives in
``gawm.latent`` and is also looked up as ``gawm.training.pose_features``)
is replaced under every name that holds it, and ``remove`` puts every
original back.

Spans are kept for calls whose nesting matters (stage calls, training
steps, probe and GAR calls): each records its name, start, end, parent
span, whether it raised, and the time before-hooks spent inside it.
High-frequency leaf functions get an aggregated counter instead: calls
plus inclusive seconds. Both stay in memory until ``summary`` is taken
at the end of a run.

A before-hook (for example one that walks the autograd tape to count
its nodes) runs outside its own wrapper's timing, and its time is also
taken out of every span open around it, so that measuring does not
count as work of the enclosing stage or training step.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPAN = "span"
COUNT = "count"


def _gawm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gawm" or name.startswith("gawm."))]


def _resolve(target: str):
    """(owner, attribute, value) for 'gawm.mod.func' or 'gawm.mod.Class.method'."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is None:
            continue
        owner = module
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise LookupError(f"cannot resolve {target!r}; is gawm imported?")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised, hook seconds]
        self.counters: dict[str, list] = {}  # name -> [calls, inclusive seconds]
        self.extra: dict[str, float] = {}  # counts kept by before-hooks
        self.hook_s = 0.0  # total time spent in before-hooks
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _run_hook(self, before, args, kwargs) -> None:
        """Run a before-hook and take its time out of every open span."""
        start = perf_counter()
        before(args, kwargs)
        spent = perf_counter() - start
        self.hook_s += spent
        for idx in self._open:
            self.spans[idx][5] += spent

    def _span_wrapper(self, name, fn, before, after):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1, False, 0.0]
            spans.append(record)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                record[1], record[2] = start, end
                if record[4] and after is not None:
                    after(args, kwargs, None, record)
            if after is not None:
                after(args, kwargs, result, record)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, before):
        cell = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                cell[0] += 1

        return wrapper

    # -- patching -------------------------------------------------------------

    def wrap(self, target: str, name, kind: str = COUNT, before=None, after=None) -> None:
        """Replace ``target`` everywhere gawm holds it.

        ``name`` is the span or counter name, or for spans a callable of
        (args, kwargs) that picks the name per call. ``before(args, kwargs)``
        runs ahead of the timed interval and is not counted in any open
        span; ``after(args, kwargs, result, span)`` runs once it has closed
        (with ``result=None`` if it raised).
        """
        owner, attr, original = _resolve(target)
        if kind == SPAN:
            wrapper = self._span_wrapper(name, original, before, after)
        else:
            wrapper = self._count_wrapper(name, original, before)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [(m, a) for m in _gawm_modules()
                      for a, v in list(vars(m).items()) if v is original]
        for holder, a in owners:
            self._patches.append((holder, a, original))
            setattr(holder, a, wrapper)

    def remove(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- results --------------------------------------------------------------

    def span_durations(self, name: str) -> list[float]:
        return [span_seconds(s) for s in self.spans if s[0] == name]

    def summary(self) -> dict:
        """Per-name span totals with self time, counters and hook counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += span_seconds(s)
        spans: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            agg = spans.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0})
            dur = span_seconds(s)
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
            agg["raised"] += int(s[4])
        return {
            "spans": spans,
            "counters": {k: {"calls": v[0], "total_s": v[1]} for k, v in self.counters.items()},
            "extra": dict(self.extra),
            "train_step_s": self.span_durations("training.train_step"),
        }


def span_seconds(span: list) -> float:
    """A span's duration without the before-hooks that ran inside it."""
    return span[2] - span[1] - span[5]


def merge_summaries(a: dict, b: dict) -> dict:
    """Sum two summaries name by name (used to add a set-up process's trace)."""
    out = {"spans": {}, "counters": {}, "extra": dict(a["extra"]),
           "train_step_s": a["train_step_s"] + b["train_step_s"]}
    for key in ("spans", "counters"):
        for src in (a[key], b[key]):
            for name, agg in src.items():
                dst = out[key].setdefault(name, {k: 0 for k in agg})
                for k, v in agg.items():
                    dst[k] += v
    for k, v in b["extra"].items():
        out["extra"][k] = out["extra"].get(k, 0) + v
    return out
