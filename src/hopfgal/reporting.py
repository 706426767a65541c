"""Verification reports: one claim checked, with parameters, outcome, witness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Report:
    claim: str
    parameters: dict
    status: str                       # "pass" | "fail" | "skipped"
    witness: Any = None               # counterexample / certificate data on failure
    elapsed_ms: int = 0

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError("status must be pass, fail or skipped, got %r"
                             % (self.status,))
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self, with_timing: bool = False) -> dict:
        d = {
            "claim": self.claim,
            "parameters": self.parameters,
            "status": self.status,
            "witness": self.witness,
        }
        if with_timing:
            d["elapsed_ms"] = self.elapsed_ms
        return d


def checked(claim: str, parameters: dict,
            fn: Callable[[], tuple[bool, Any]]) -> Report:
    """Run fn() -> (ok, witness) under a timer and wrap the outcome."""
    t0 = time.perf_counter()
    ok, witness = fn()
    ms = int(round((time.perf_counter() - t0) * 1000))
    return Report(claim=claim, parameters=parameters,
                  status="pass" if ok else "fail",
                  witness=None if ok else witness, elapsed_ms=ms)
