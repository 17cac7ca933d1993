"""Spans recorded from outside caplab by wrapping its public functions.

A span is (name, start, end, parent, rows). Spans live in flat in-memory
arrays while the workload runs and are written out once, at the end.
Self time and call/row counts are derived from the spans afterwards.

caplab modules import each other's functions by name (``from .nn import
forward``), so wrapping only the defining module would let most calls
escape. ``Tracer.install`` therefore replaces every binding of the
function in every loaded caplab module, and ``uninstall`` puts them back.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """A public function to wrap: ``module.attr`` reported as ``name``."""

    module: str
    attr: str
    rows_arg: Optional[int] = None  # positional index of the array whose rows are counted
    keep: Optional[Callable] = None  # keep(args, result) -> object retained for later analysis

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.names = [t.name for t in targets]
        self.name_id = array("i")
        self.parent = array("q")
        self.rows = array("q")
        self.start = array("q")
        self.end = array("q")
        self.kept: dict[str, list] = {t.name: [] for t in targets if t.keep is not None}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, name_id: int, target: Target):
        name_ids, parent, rows, start, end = self.name_id, self.parent, self.rows, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        rows_arg = target.rows_arg
        keep = target.keep
        kept = self.kept.get(target.name)

        def traced(*args, **kwargs):
            idx = len(start)
            name_ids.append(name_id)
            parent.append(stack[-1])
            rows.append(_rows(args[rows_arg]) if rows_arg is not None else 0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "caplab" or n.startswith("caplab.")]
        for name_id, target in enumerate(self.targets):
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, name_id, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-name calls, rows and self seconds of spans [lo, hi), plus the
        seconds covered by their top-level spans."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        rows = np.frombuffer(self.rows, dtype=np.int64)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.int64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.int64)[lo:hi]
        ).astype(np.float64) * 1e-9
        nested = parent >= 0
        child_time = np.bincount(parent[nested] - lo, weights=dur[nested], minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        row_sum = np.bincount(names, weights=rows, minlength=k)
        self_sum = np.bincount(names, weights=self_time, minlength=k)
        per_name = {
            n: {"calls": int(calls[i]), "rows": int(row_sum[i]), "self_s": float(self_sum[i])}
            for i, n in enumerate(self.names)
        }
        return {"per_name": per_name, "covered_s": float(dur[~nested].sum()), "spans": int(hi - lo)}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            rows=np.frombuffer(self.rows, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
