"""In-memory span recorder that times calls into the program from outside.

The recorder replaces a public function with a wrapper at every name it
is looked up by: the attribute of its defining module, each module that
bound it with ``from ... import``, and each package that re-exports it.
Methods are replaced once, on their class.  Nothing inside ``src/`` is
edited; :func:`uninstall` puts every original back.

Each span is kept as four parallel list entries (name, start, end,
parent), so recording costs one list append per field.  Hot leaves
such as simulator events are counted from the wrapped call's result by
an optional ``count`` callback instead of being wrapped themselves.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``count(recorder, result, args, kwargs)`` runs after a wrapped call
#: returns and adds work counts derived from its arguments and result.
CountFn = Callable[["SpanRecorder", object, tuple, dict], None]


@dataclass(frozen=True)
class Target:
    """One function to wrap: span ``name`` around ``module:qualname``."""

    name: str
    module: str
    qualname: str
    count: Optional[CountFn] = None


class SpanRecorder:
    """Spans (name, start, end, parent) plus named work counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.keys: Dict[str, set] = defaultdict(set)
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable,
             count: Optional[CountFn] = None) -> Callable:
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def dump(self, path: str) -> None:
        """Write the spans as gzip JSON columns (name table + indices)."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "names": table,
            "name": [ids[n] for n in self.names],
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
            "counters": dict(sorted(self.counters.items())),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- installing wrappers ------------------------------------------------------

Patch = Tuple[object, str, object]


def _resolve(target: Target):
    """``(owner, attr, original)`` for a target; ``owner`` is a class
    for methods and the defining module for functions."""
    # importlib, not attribute access: ``repro.obs.critical_path`` as a
    # package attribute is the function of that name, not the module.
    module = importlib.import_module(target.module)
    owner_path, _, attr = target.qualname.rpartition(".")
    owner = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"{target.module}:{target.qualname} not found")
    return owner, attr, vars(owner)[attr]


def install(recorder: SpanRecorder, targets: Sequence[Target],
            packages: Sequence[str] = ("repro", "perfbench")
            ) -> List[Patch]:
    """Wrap every target wherever it is bound in ``packages`` (the
    program and the benchmark's own modules); returns the undo list."""
    patches: List[Patch] = []
    functions: Dict[int, Tuple[object, Callable]] = {}
    for target in targets:
        owner, attr, original = _resolve(target)
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"{target.qualname}: only plain functions "
                            f"and methods can be wrapped")
        wrapper = recorder.wrap(target.name, original, target.count)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            functions[id(original)] = (original, wrapper)
    if functions:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.split(".")[0] not in packages:
                continue
            for attr, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- folding spans into self time ---------------------------------------------


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[i], starts[parent])
            hi = min(ends[i], ends[parent])
            if hi > lo:
                children[parent].append((lo, hi))
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, intervals in children.items():
        intervals.sort()
        covered = 0
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += cur_hi - cur_lo
        out[parent] -= covered
    return out


def covered_ns(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int], lo: int, hi: int) -> int:
    """Time in ``[lo, hi]`` covered by the union of root spans."""
    roots = sorted((max(starts[i], lo), min(ends[i], hi))
                   for i, p in enumerate(parents) if p < 0)
    total = 0
    cur_lo = cur_hi = None
    for s, e in roots:
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Fold:
    """Self time and call counts per span name over traced windows."""

    wall_ns: int
    self_ns: Dict[str, int]
    calls: Dict[str, int]
    unattributed_ns: int

    @property
    def conservation_error_ns(self) -> int:
        """Σ self + unattributed − wall; 0 when the fold is exact."""
        return (sum(self.self_ns.values()) + self.unattributed_ns
                - self.wall_ns)


def fold(recorder: SpanRecorder,
         windows: Sequence[Tuple[int, int]]) -> Fold:
    """Fold the recorder's spans over disjoint ``(start_ns, end_ns)``
    windows, the stretches of wall time that were traced.

    Unattributed time is measured independently of the self-time fold,
    from the union of root spans, so :attr:`Fold.conservation_error_ns`
    checks the fold rather than restating it.
    """
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for name, s in zip(recorder.names, selfs):
        self_ns[name] += s
        calls[name] += 1
    wall = sum(hi - lo for lo, hi in windows)
    covered = sum(covered_ns(recorder.starts, recorder.ends,
                             recorder.parents, lo, hi)
                  for lo, hi in windows)
    return Fold(wall_ns=wall, self_ns=dict(self_ns), calls=dict(calls),
                unattributed_ns=wall - covered)
