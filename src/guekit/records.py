"""Tabular command output with lossless CSV and JSON serialization.

Rationals render as "p/q" (bare "p" when q = 1), floats as Python's
shortest round-trip repr, so parsing an emitted file reproduces the
in-memory record: floats bit-equal, rationals numerically equal, at any
number of digits.  CSV files carry the command name and parameters in two
leading '#' comment lines, which numpy.loadtxt and pandas skip natively.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

_INT_RE = re.compile(r"[+-]?\d+$")
_FRACTION_RE = re.compile(r"[+-]?\d+/\d+$")


@contextmanager
def _any_int_digits():
    """Python's int-to-str digit limit (4300 by default) lifted for the
    body and restored after it: the exact c_q pass 4300 digits from N = 801."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def encode_cell(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def decode_cell(text: str):
    if _INT_RE.fullmatch(text):
        return int(text)
    if _FRACTION_RE.fullmatch(text):
        return Fraction(text)
    try:
        return float(text)
    except ValueError:
        return text


def _encode_fraction(value) -> str:
    """json.dumps hook: a Fraction becomes its cell text; json rejects anything else."""
    if isinstance(value, Fraction):
        return encode_cell(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _from_jsonable(value):
    if isinstance(value, str):
        return decode_cell(value)
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


@dataclass
class OutputRecord:
    """One command invocation: parameters plus a column-named table."""

    command: str
    parameters: dict
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity must match the header")

    @_any_int_digits()
    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# command: {self.command}\n")
        buf.write("# parameters: "
                  + json.dumps(self.parameters, sort_keys=True, default=_encode_fraction)
                  + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([encode_cell(v) for v in row])
        return buf.getvalue()

    @classmethod
    @_any_int_digits()
    def from_csv(cls, text: str) -> "OutputRecord":
        lines = text.splitlines()
        if len(lines) < 3 or not lines[0].startswith("# command: ") \
                or not lines[1].startswith("# parameters: "):
            raise ValueError("missing CSV preamble")
        command = lines[0][len("# command: "):]
        params = {k: _from_jsonable(v)
                  for k, v in json.loads(lines[1][len("# parameters: "):]).items()}
        reader = csv.reader(lines[2:])
        columns = next(reader)
        rows = [[decode_cell(cell) for cell in row] for row in reader if row]
        return cls(command, params, columns, rows)

    @_any_int_digits()
    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "columns": self.columns,
                "rows": self.rows,
            },
            indent=2,
            default=_encode_fraction,
        )

    @classmethod
    @_any_int_digits()
    def from_json(cls, text: str) -> "OutputRecord":
        doc = json.loads(text)
        return cls(
            doc["command"],
            {k: _from_jsonable(v) for k, v in doc["parameters"].items()},
            list(doc["columns"]),
            [[_from_jsonable(v) for v in row] for row in doc["rows"]],
        )

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")
