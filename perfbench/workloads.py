"""Seeded command lists for the four benchmark workloads.

A workload is a list of ``catloss`` argv lists; one pass runs the list once.
The seed draws only the generated argv values (logical amplitudes and the
alpha-sweep values); the program receives nothing but the argv.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

SPACINGS = "0.02,0.05,0.1,0.5,1,5,20"


def _num(x: float) -> str:
    return format(x, ".17g")


def _amplitudes(rng: random.Random) -> list[str]:
    """Real qubit amplitudes --a/--b; the CLI normalizes them."""
    return [f"--a={_num(rng.uniform(0.2, 1.0))}", f"--b={_num(rng.uniform(-1.0, 1.0))}"]


def _coeffs(rng: random.Random, d: int) -> str:
    parts = []
    for _ in range(d):
        re, im = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        parts.append(f"{_num(re)}{format(im, '+.17g')}j")
    return "--coeffs=" + ",".join(parts)


def _paper_grids(rng):
    return [
        ["weights", "--L", "1", "--alpha", "2", *_amplitudes(rng)],
        ["fidelity", "--L", "1", "--alpha", "2"],
        ["weights", "--L", "2", "--alpha", "3", *_amplitudes(rng)],
        ["fidelity", "--L", "2", "--alpha", "3"],
        ["kl-report", "--L", "1"],
        ["verify"],
    ]


def _qudit_grid(rng):
    return [
        ["weights", "--L", "6", "--d", "4", "--alpha", "8", _coeffs(rng, 4)],
        ["weights", "--L", "3", "--d", "3", "--alpha", "5", _coeffs(rng, 3)],
    ]


def _chains(rng):
    alphas = ",".join(_num(rng.uniform(3.0, 9.0)) for _ in range(200))
    return [
        ["tables", "--which", "I"],
        ["tables", "--which", "II"],
        ["tables", "--which", "III"],
        ["sweep", "--L", "4", "--alpha", "6", "--axis", "spacing",
         "--values", SPACINGS, *_amplitudes(rng)],
        ["sweep", "--L", "4", "--alpha", "7", "--axis", "alpha",
         "--values", alphas, *_amplitudes(rng)],
    ]


def _trace_render(rng):
    base = ["repeater", "--L", "4", "--alpha", "7", "--spacing-km", "0.01", "--trace",
            *_amplitudes(rng)]
    return [base + ["--format", "csv"], base + ["--format", "json"]]


WORKLOADS = {
    "paper-grids": _paper_grids,
    "qudit-grid": _qudit_grid,
    "chains": _chains,
    "trace-render": _trace_render,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass of ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def output_format(argv: list[str]) -> str:
    """How the dataset written by ``argv`` is encoded: csv, json or verify text."""
    if argv[0] == "verify":
        return "verify"
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


def table_key(argv: list[str]) -> str:
    """Reference key of a command: its argv without the output encoding, since
    the csv and json renderings of one command carry the same table."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--format":
            skip = True
        else:
            out.append(tok)
    return " ".join(out)
