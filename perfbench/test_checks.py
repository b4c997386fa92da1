"""Tests of the benchmark's per-operation checks.

    python3 -m pytest perfbench

A stand-in for ``catloss.cli`` writes chosen bytes (or raises), the worker's
runner records the operation as it does in a benchmark run, and the checker
must count a perturbed dataset, a NaN and a raised exception as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from checks import Checker, load_reference
from worker import Runner
from workloads import DEFAULT_SEED, commands, table_key

WEIGHTS = commands("paper-grids", DEFAULT_SEED)[0]
REFERENCE = load_reference()


class FakeCli:
    """Writes ``text`` and a manifest for it like ``catloss.cli.main``, or raises."""

    def __init__(self, text: str = "", exc: Exception | None = None, manifest_sha=None):
        self.text, self.exc, self.manifest_sha = text, exc, manifest_sha

    def main(self, argv):
        if self.exc is not None:
            raise self.exc
        out = argv[argv.index("--out") + 1]
        data = self.text.encode()
        Path(out).write_bytes(data)
        sha = self.manifest_sha or hashlib.sha256(data).hexdigest()
        Path(out + ".manifest.json").write_text(json.dumps({"output_sha256": sha}))
        return 0


def _csv(table) -> str:
    return "\n".join(",".join(row) for row in table) + "\n"


def _reference_table():
    return [list(row) for row in REFERENCE["tables"][table_key(WEIGHTS)]]


def _outcome(tmp_path, cli):
    spec = {"commands": [WEIGHTS], "workdir": str(tmp_path)}
    runner = Runner(spec, cli)
    runner.run_pass(0)
    (rec,) = runner.records
    return Checker([WEIGHTS], REFERENCE).check(rec)


def test_reference_dataset_passes(tmp_path):
    why, dev = _outcome(tmp_path, FakeCli(_csv(_reference_table())))
    assert why is None
    assert dev == 0.0


def test_perturbed_dataset_fails(tmp_path):
    table = _reference_table()
    # Small enough to keep the row summing to one within 1e-10, so only the
    # comparison with the reference can catch it.
    table[10][1] = repr(float(table[10][1]) + 5e-11)
    why, _ = _outcome(tmp_path, FakeCli(_csv(table)))
    assert why is not None and "reference" in why


def test_nan_fails(tmp_path):
    table = _reference_table()
    table[5][2] = "nan"
    why, _ = _outcome(tmp_path, FakeCli(_csv(table)))
    assert why is not None and "non-finite" in why


def test_raised_exception_fails(tmp_path):
    why, _ = _outcome(tmp_path, FakeCli(exc=ArithmeticError("beyond the roundoff clamp")))
    assert why == "raised ArithmeticError: beyond the roundoff clamp"


def test_manifest_mismatch_fails(tmp_path):
    why, _ = _outcome(tmp_path, FakeCli(_csv(_reference_table()), manifest_sha="0" * 64))
    assert why is not None and "manifest" in why
