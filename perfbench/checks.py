"""Correctness checks and command bookkeeping for one benchmark run.

Every command the benchmark issues and every check it makes counts as
one attempt; a command that fails or a check that does not hold counts
as one failure.  ``failed / attempted`` is the run's failed fraction.
"""

from __future__ import annotations

import math


class Checks:
    def __init__(self):
        self.results: list[dict] = []
        self.commands = 0
        self.failed_commands = 0

    def command(self, ok: bool) -> None:
        self.commands += 1
        if not ok:
            self.failed_commands += 1

    def record(self, name: str, ok: bool, **detail) -> bool:
        ok = bool(ok)
        self.results.append({"name": name, "ok": ok,
                             **{k: _plain(v) for k, v in detail.items()}})
        return ok

    def close(self, name: str, value, target, tol) -> bool:
        """|value - target| <= tol, with NaN never close."""
        value, target = float(value), float(target)
        ok = math.isfinite(value) and abs(value - target) <= tol
        return self.record(name, ok, value=value, target=target, tol=tol)

    def at_most(self, name: str, value, limit) -> bool:
        value = float(value)
        ok = math.isfinite(value) and value <= limit
        return self.record(name, ok, value=value, limit=limit)

    def less(self, name: str, small, large) -> bool:
        small, large = float(small), float(large)
        return self.record(name, small < large, value=small, below=large)

    def equal(self, name: str, a, b) -> bool:
        return self.record(name, a == b, value=a, expected=b)

    @property
    def attempted(self) -> int:
        return self.commands + len(self.results)

    @property
    def failed(self) -> int:
        return self.failed_commands + sum(not r["ok"] for r in self.results)

    def failures(self) -> list[dict]:
        return [r for r in self.results if not r["ok"]]


def _plain(v):
    if hasattr(v, "item"):
        return v.item()
    return v
