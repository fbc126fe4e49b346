"""Structured results of identity checks, with JSON and CSV emission."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np


def _jsonify(value):
    if value is None or type(value) in (str, float, int, bool):
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.complexfloating):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass
class ResidualReport:
    """Outcome of one identity check.

    verdict is "pass" exactly when every judged residual sits below its
    declared tolerance; quantities the identity only reports (such as the
    constant term of an up-to-constant identity) are never judged.
    """

    identity: str
    max_q2: float | None = None
    max_q1: float | None = None
    q0: complex | None = None
    numeric_spread: float | None = None
    fd_residual: float | None = None
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    verdict: str = "pass"
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {f.name: _jsonify(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_line(self) -> str:
        parts = [f"{self.identity}: {self.verdict.upper()}"]
        if self.max_q2 is not None:
            parts.append(f"max|Q2|={self.max_q2:.3e}")
        if self.max_q1 is not None:
            parts.append(f"max|Q1|={self.max_q1:.3e}")
        if self.numeric_spread is not None:
            parts.append(f"spread={self.numeric_spread:.3e}")
        if self.fd_residual is not None:
            parts.append(f"fd={self.fd_residual:.3e}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


SWEEP_CSV_COLUMNS = [
    "identity", "num_modes", "mass", "box_length", "hbar", "t",
    "lambda_re", "lambda_im", "seed",
    "max_q2", "max_q1", "q0_re", "q0_im",
    "numeric_spread", "fd_residual", "verdict",
]
# the columns written with str; every other one is a float written with repr
_STR_COLUMNS = ("identity", "num_modes", "seed", "verdict")


def sweep_csv_row(report: ResidualReport) -> str:
    """One sweep.csv line: each column read from the report's params, its
    fields or the parts of q0 (nan + 0j when unset); a missing value is empty."""
    q0 = report.q0 if report.q0 is not None else complex("nan")
    values = {**report.params, **vars(report), "q0_re": q0.real, "q0_im": q0.imag}

    def cell(column):
        x = values.get(column)
        if x is None:
            return ""
        return str(x) if column in _STR_COLUMNS else repr(float(x))
    return ",".join(cell(column) for column in SWEEP_CSV_COLUMNS)
