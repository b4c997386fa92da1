"""Correctness checks of the datasets a workload writes.

An operation (one ``cli.main`` call) fails if it exits nonzero, raises, writes
a manifest whose ``output_sha256`` differs from the bytes written, writes a
non-finite value, breaks an invariant of its dataset, or differs from the
reference dataset of the same command by more than ``REF_TOL``.
"""

from __future__ import annotations

import json
import lzma
import math
import re
from pathlib import Path

from workloads import output_format, table_key

REFERENCE_PATH = Path(__file__).with_name("reference.json.xz")

# Datasets may differ from the reference by this much: absolute for values
# up to 1 in magnitude, relative above (the relative-deviation columns of
# ``tables`` reach a few units, where 1e-12 absolute is below roundoff).
REF_TOL = 1e-12
# weights rows sum to one within this.
SUM_TOL = 1e-10

_VERIFY_LINE = re.compile(r"^(ok  |FAIL) (.+): (\S+) \(tol (\S+)\)$")


class DatasetError(ValueError):
    """A dataset that cannot be parsed or breaks an invariant."""


def load_reference() -> dict:
    with lzma.open(REFERENCE_PATH, "rt") as fh:
        return json.load(fh)


def parse_table(text: str, fmt: str) -> list[list[str]]:
    """Header row plus data rows, every cell as the text the CLI wrote."""
    if fmt == "csv":
        lines = text.split("\n")
        if lines[-1] != "":
            raise DatasetError("csv does not end with a newline")
        return [line.split(",") for line in lines[:-1]]
    if fmt == "json":
        payload = json.loads(text)
        return [list(payload["columns"])] + [[str(v) for v in row] for row in payload["rows"]]
    if fmt == "verify":
        lines = text.rstrip("\n").split("\n")
        if lines[-1] != "all checks passed":
            raise DatasetError(f"verify ends with {lines[-1]!r}")
        rows = [["check", "value"]]
        for line in lines[:-1]:
            m = _VERIFY_LINE.match(line)
            if m is None or m.group(1) != "ok  ":
                raise DatasetError(f"verify line {line!r}")
            rows.append([m.group(2), m.group(3)])
        return rows
    raise DatasetError(f"unknown format {fmt!r}")


def _number(cell: str) -> float | None:
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _columns(table, names):
    header = table[0]
    missing = [n for n in names if n not in header]
    if missing:
        raise DatasetError(f"missing columns {missing}")
    idx = [header.index(n) for n in names]
    return [[_number(row[i]) for i in idx] for row in table[1:]]


def _unit_interval(table, names):
    for row in _columns(table, names):
        for name, v in zip(names, row):
            if v is None or not 0.0 <= v <= 1.0:
                raise DatasetError(f"{name} = {v} outside [0, 1]")


def check_invariants(subcommand: str, table: list[list[str]]) -> None:
    """Raise DatasetError unless the table is finite and keeps its invariants."""
    if len(table) < 2:
        raise DatasetError("no data rows")
    width = len(table[0])
    for row in table[1:]:
        if len(row) != width:
            raise DatasetError(f"row of {len(row)} cells under {width} columns")
        for cell in row:
            v = _number(cell)
            if v is not None and not math.isfinite(v):
                raise DatasetError(f"non-finite value {cell!r}")
    header = table[0]
    if subcommand == "weights":
        names = [c for c in header if c.startswith("ptilde_")]
        for row in _columns(table, names):
            if any(v is None or not 0.0 <= v <= 1.0 for v in row):
                raise DatasetError(f"weight outside [0, 1]: {row}")
            if abs(math.fsum(row) - 1.0) > SUM_TOL:
                raise DatasetError(f"weights sum to {math.fsum(row)}")
    elif subcommand == "fidelity":
        _unit_interval(table, ["F_plus", "F_minus", "F_bound"])
        for f_plus, f_minus, f_bound in _columns(table, ["F_plus", "F_minus", "F_bound"]):
            if f_bound != min(f_plus, f_minus):
                raise DatasetError(f"F_bound {f_bound} != min({f_plus}, {f_minus})")
    elif subcommand == "sweep":
        _unit_interval(table, ["fidelity", "success_prob"])
    elif subcommand == "repeater":
        if "f_factor" in header:
            _unit_interval(table, ["f_factor", "p_factor"])
        else:
            _unit_interval(table, ["fidelity", "success_prob"])
    elif subcommand == "tables":
        _unit_interval(table, ["F_new", "P_new_plus", "P_new_minus",
                               "F_old", "P_old_plus", "P_old_minus"])
    elif subcommand == "kl-report":
        for row in _columns(table, header[1:]):
            if any(v is None or v < 0.0 for v in row):
                raise DatasetError(f"negative or missing violation in {row}")


def max_deviation(table: list[list[str]], ref: list[list[str]]) -> float:
    """Largest scaled difference |x - x_ref| / max(1, |x_ref|) over all cells;
    inf when the shapes, the headers or a non-numeric cell differ."""
    if len(table) != len(ref) or table[0] != ref[0]:
        return math.inf
    worst = 0.0
    for row, ref_row in zip(table[1:], ref[1:]):
        if len(row) != len(ref_row):
            return math.inf
        for cell, ref_cell in zip(row, ref_row):
            if cell == ref_cell:
                continue
            x, x_ref = _number(cell), _number(ref_cell)
            if x is None or x_ref is None:
                return math.inf
            worst = max(worst, abs(x - x_ref) / max(1.0, abs(x_ref)))
    return worst


class Checker:
    """Checks every operation record a worker returns; each distinct dataset
    (command, sha256) is parsed and checked once."""

    def __init__(self, commands: list[list[str]], reference: dict):
        self.commands = commands
        self.reference = reference
        self._verdicts: dict[tuple[int, str], tuple[str | None, float | None]] = {}

    def dataset_verdict(self, op: int, sha: str, path: str) -> tuple[str | None, float | None]:
        """(failure reason or None, deviation from the reference or None)."""
        key = (op, sha)
        if key not in self._verdicts:
            argv = self.commands[op]
            fmt = output_format(argv)
            ref = self.reference["tables"].get(table_key(argv))
            try:
                table = parse_table(Path(path).read_text(), fmt)
                check_invariants(argv[0], table)
                dev = None
                if ref is not None and fmt != "verify":
                    dev = max_deviation(table, ref)
                    if dev > REF_TOL:
                        raise DatasetError(f"differs from the reference by {dev:.3g}")
                self._verdicts[key] = (None, dev)
            except (DatasetError, ValueError, KeyError, TypeError) as exc:
                self._verdicts[key] = (f"{type(exc).__name__}: {exc}", None)
        return self._verdicts[key]

    def check(self, rec: dict) -> tuple[str | None, float | None]:
        """Failure reason of one operation record (None if it passed), and
        its deviation from the reference where one applies."""
        if rec["error"] is not None:
            return f"raised {rec['error']}", None
        if rec["rc"] != 0:
            return f"exit code {rec['rc']}", None
        if rec["sha256"] is None or rec["data"] is None:
            return "no dataset written", None
        argv = self.commands[rec["op"]]
        if argv[0] != "verify" and rec["manifest_sha256"] != rec["sha256"]:
            return "manifest output_sha256 does not match the data", None
        return self.dataset_verdict(rec["op"], rec["sha256"], rec["data"])

    def identical(self, rec: dict) -> bool:
        """Whether the dataset is byte-equal to the recorded reference."""
        argv = self.commands[rec["op"]]
        return rec["sha256"] is not None and rec["sha256"] == self.reference["sha256"].get(
            " ".join(argv))
