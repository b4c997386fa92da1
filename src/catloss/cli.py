"""Command-line front end.

Each subcommand emits one deterministic dataset through one writer: CSV or
JSON (floats at 17 significant digits, no timestamps), or ``verify``'s text
report, plus, when ``--out`` is a regular file (or a link to one), a manifest JSON
of the resolved parameters, library version and data sha256; a device such as
``/dev/null`` gets none.  A negative value may be a separate token (``-1e-3``).

Exit codes: 0 success, 1 usage or validation error (any ``ValueError``, an
unreadable file, exhausted memory, a chain transmission that underflows to 0),
2 a failed ``verify`` check, or a numerical failure that writes nothing: an
arithmetic failure (overflow, a tripped clamp) or a non-finite output value.
A failure while the data or its manifest is written to ``--out`` (exit 1 or 2)
removes the files written, so no data file is left truncated or without manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from itertools import chain, groupby

import numpy as np

from . import __version__, channel, codes, qec, repeater

# Restoration cadence of each scheme: restore at every n-th station.
SCHEME_AR_EVERY = {"old": 1, "new": 2}

# Reference values for the 1000 km chain comparison (one block per code
# order); rows are (alpha, spacing_km, F_new, P_new, F_old, P_old), None
# where only "approximately 0/1" is known.
LONG_HAUL_REFERENCE = {
    "I": {
        "L": 3,
        "rows": [
            (4.0, 0.01, 0.999989, None, 0.999989, None),
            (4.0, 0.10, 0.989446, None, 0.989275, 1e-76),
            (4.0, 1.00, 0.00473919, 3e-8, 0.00232537, 1e-12),
            (4.5, 0.01, 0.99997, None, 0.99997, 1e-42),
            (4.5, 0.10, 0.973278, 0.00830884, 0.972789, 7e-5),
            (4.5, 1.00, 9e-6, 0.00880618, 1e-6, 3e-3),
            (5.0, 0.01, 0.999931, None, 0.999931, 1e-67),
            (5.0, 0.10, 0.940122, 5e-4, 0.87604, 2e-7),
            (5.0, 1.00, None, 0.168942, 6e-22, 0.0847453),
            (6.0, 0.01, 0.999706, 5e-4, 0.999705, 3e-7),
            (6.0, 0.10, 0.774627, 0.468715, 0.771153, 0.221926),
            (6.0, 1.00, None, 0.893489, 3e-36, 0.843821),
        ],
    },
    "II": {
        "L": 4,
        "rows": [
            (6.0, 0.01, 0.999999, 3e-31, 0.999999, 1e-61),
            (6.0, 0.10, 0.991757, 4e-4, 0.991574, 4e-7),
            (6.0, 1.00, 1e-9, 0.0787418, 4e-11, 0.0455329),
            (7.0, 0.01, 0.999996, 6e-4, 0.999996, 3e-7),
            (7.0, 0.10, 0.963915, 0.451687, 0.96314, 0.214877),
            (7.0, 1.00, 6e-28, 0.755955, 3e-22, 0.740854),
            (8.0, 0.01, 0.999983, 0.230988, 0.999983, 0.0531004),
            (8.0, 0.10, 0.876309, 0.867937, 0.873809, 0.74901),
            (8.0, 1.00, 1e-66, 0.979637, 1e-75, 0.977982),
        ],
    },
    "III": {
        "L": 5,
        "rows": [
            (6.0, 0.01, None, None, None, None),
            (6.0, 0.10, 0.999781, 4e-24, 0.999776, 1e-47),
            (6.0, 1.00, 0.00639287, 3e-5, 3e-3, 6e-6),
            (7.0, 0.01, None, 3e-50, None, None),
            (7.0, 0.10, 0.998659, 1e-5, 0.998624, 1e-10),
            (7.0, 1.00, 2e-9, 0.06615, 4e-11, 0.0759747),
            (8.0, 0.01, None, 1e-7, None, 2e-14),
            (8.0, 0.10, 0.99371, 0.194448, 0.993546, 0.0417406),
            (8.0, 1.00, 4e-27, 0.691036, 1e-31, 0.659869),
            (9.0, 0.01, None, 4e-3, None, 1.75e-5),
            (9.0, 0.10, 0.975983, 0.578119, 0.97537, 0.334447),
            (9.0, 1.00, 5e-64, 0.963224, 4e-74, 0.89103),
        ],
    },
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # -1e-3 and -0.5+0.1j too

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class _Layout:
    """A dataset is ``head(columns)``, the rows joined by ``row_sep``, then
    ``foot``; a row is ``row_open``, cells joined by ``cell_sep``, then ``row_close``,
    through one ``%`` template per tuple of cell types, built once per copy of the
    layout: a float by ``floats``, a str by ``strs``, any other cell (an int) by
    ``%s``.  A row holding a non-finite float fails, naming the first one.  The only
    str cells are program literals (``tables``' empty cell, the trace's ``#``), so
    none needs escaping."""

    head: Callable[[list[str]], str]
    floats: str = "%.17g"
    strs: str = "%s"
    row_open: str = ""
    cell_sep: str = ","
    row_close: str = ""
    row_sep: str = "\n"
    foot: str = "\n"
    templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def template(self, types: tuple) -> str:
        if types not in self.templates:
            self.templates[types] = self.row_open + self.cell_sep.join(
                self.floats if issubclass(t, float) else self.strs if issubclass(t, str)
                else "%s" for t in types) + self.row_close
        return self.templates[types]

    def row(self, values) -> str:
        text = self.template(tuple(map(type, values))) % tuple(values)
        if "n" in text:  # nan or inf: no finite float, int or str cell spells an n
            for value in values:
                if isinstance(value, float) and not math.isfinite(value):
                    raise ArithmeticError(f"non-finite value {value} in output")
        return text

    def rows(self, rows) -> str:
        """The rows joined by ``row_sep``, as ``row`` spells and checks them: each run
        of rows with one tuple of cell types through one ``%`` over the run's joined
        template."""
        texts = []
        for types, run in groupby(rows, lambda values: tuple(map(type, values))):
            run = list(run)
            text = self.row_sep.join([self.template(types)] * len(run)) % tuple(
                chain.from_iterable(run))
            if "n" in text:
                for values in run:  # names the first non-finite cell
                    self.row(values)
            texts.append(text)
        return self.row_sep.join(texts)


LAYOUTS = {
    "csv": _Layout(head=lambda columns: ",".join(columns) + "\n"),
    "json": _Layout(
        floats='"%.17g"', strs='"%s"',  # floats as 17-digit strings
        # json.dumps of the columns and no rows, cut after the rows' "["
        head=lambda columns: json.dumps({"columns": columns, "rows": []}, indent=2)[:-3] + "\n",
        row_open="    [\n      ", cell_sep=",\n      ", row_close="\n    ]",
        row_sep=",\n", foot="\n  ]\n}\n",
    ),
    "text": _Layout(head=lambda columns: ""),  # verify's report; not a --format
}


def write_output(columns: list[str], blocks: Iterable[bytes], args) -> None:
    """Stream ``head``, the byte blocks (each one or more rows joined by ``row_sep``) with
    ``row_sep`` between them, then ``foot`` of ``LAYOUTS[args.format]`` to stdout, or to
    ``--out`` hashed as written plus, if ``--out`` is a regular file, a manifest whose
    params are the parsed ``args``."""
    layout = LAYOUTS[args.format]
    head, sep, foot = (t.encode() for t in (layout.head(columns), layout.row_sep, layout.foot))
    blocks = iter(blocks)
    chunks = chain([head, next(blocks, b"")],
                   chain.from_iterable((sep, block) for block in blocks), [foot])
    if args.out is None:
        try:
            sys.stdout.writelines(chunk.decode() for chunk in chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (``| head``): stop quietly, devnull takes the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    digest, opened = hashlib.sha256(), []  # the files this call created or truncated
    try:
        with open(args.out, "wb") as fh:
            opened.append(fh.name)
            for data in chunks:
                digest.update(data)
                fh.write(data)
        if not os.path.isfile(args.out):  # a device or a pipe: no file holds the data
            return
        manifest = {"subcommand": args.subcommand, "version": __version__,
                    "params": {k: v for k, v in vars(args).items() if k != "func"},
                    "output_sha256": digest.hexdigest(),
                    "created_utc": datetime.now(timezone.utc).isoformat()}
        with open(str(args.out) + ".manifest.json", "w") as fh:
            opened.append(fh.name)
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")  # one write
    except BaseException:
        for path in opened:  # a regular file only: never a device (/dev/null) or a link
            if os.path.isfile(path) and not os.path.islink(path):
                os.remove(path)
        raise


def _emit(columns, rows, args):
    # every row is rendered, and checked finite, before the first byte goes out
    write_output(columns, [replace(LAYOUTS[args.format]).rows(rows).encode()], args)


def _gamma_grid(args) -> np.ndarray:
    if not 0.0 < args.gamma_min <= args.gamma_max <= 1.0:
        raise ValueError("need 0 < gamma-min <= gamma-max <= 1")
    if args.gamma_steps < 1:
        raise ValueError(f"need gamma-steps >= 1, got {args.gamma_steps}")
    if args.gamma_steps == 1 and args.gamma_min != args.gamma_max:  # linspace keeps gamma-min
        raise ValueError("gamma-steps 1 needs gamma-min == gamma-max")
    return np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)


def _entries(text: str, flag: str, kind: type) -> list:
    """The entries of ``flag``'s comma list, each read by ``kind`` (float or complex)."""
    entries = []
    for tok in text.split(","):
        try:
            entries.append(kind(tok))
        except ValueError:
            noun = "a complex number" if kind is complex else "a number"
            raise ValueError(f"{flag} entry {tok!r} is not {noun}") from None
    return entries


def _coeffs(args, d: int) -> codes.LogicalCoeffs:
    if getattr(args, "coeffs", None) is not None:  # "" too: an empty list, not the default
        raw = _entries(args.coeffs, "--coeffs", complex)
        if len(raw) != d:
            raise ValueError(f"--coeffs needs {d} entries, got {len(raw)}")
        return codes.LogicalCoeffs.of(*raw)
    if d != 2:
        if (args.a, args.b) != (FLAGS["--a"]["default"], FLAGS["--b"]["default"]):
            raise ValueError(f"--a/--b set a qubit input; give --d {d} amplitudes with --coeffs")
        return codes.LogicalCoeffs.balanced(d)
    return codes.LogicalCoeffs.of(args.a, args.b)


def cmd_weights(args) -> int:
    spec = codes.CodeSpec(args.L, args.d, args.alpha)
    coeffs = _coeffs(args, spec.d)
    grid = _gamma_grid(args)
    columns = ["gamma"] + [f"ptilde_{j}" for j in range(spec.cycle)]
    ptilde = channel.thinning_weights(spec, coeffs, channel.ChannelParams(grid))
    _emit(columns, np.column_stack([grid, ptilde]).tolist(), args)
    return 0


def cmd_fidelity(args) -> int:
    spec = codes.CodeSpec(args.L, 2, args.alpha)
    grid = _gamma_grid(args)
    bound = qec.fidelity_bound(spec, channel.ChannelParams(grid))
    rows = np.column_stack([grid, bound.F_plus, bound.F_minus, bound.F_bound]).tolist()
    _emit(["gamma", "F_plus", "F_minus", "F_bound"], rows, args)
    return 0


def cmd_klreport(args) -> int:
    from . import fock  # the oracle loads only for the commands that run it

    specs = [codes.quiet_spec(args.L, 2, a) for a in _entries(args.alphas, "--alphas", float)]
    codes.CodeSpec(args.L, 2, np.array([s.alpha for s in specs]))  # one warning for them all
    losses = range(2 * args.L + 2)
    columns = ["alpha"] + [f"{k}_{i}" for i in losses for k in ("ortho", "deform")]
    rows = [[spec.alpha] for spec in specs]
    for spec, row in zip(specs, rows):
        for report in fock.kl_check(spec, args.basis, losses, losses):
            row += [report.ortho_violation, report.deform_violation]
    _emit(columns, rows, args)
    return 0


def _chain_config(args) -> repeater.RepeaterConfig:
    return repeater.RepeaterConfig(
        total_km=args.total_km, spacing_km=args.spacing_km, attenuation_km=args.attenuation_km,
        spec=codes.quiet_spec(args.L, 2, args.alpha),  # the chain set's batch warns once
        coeffs=_coeffs(args, 2),
        ar_every=SCHEME_AR_EVERY[args.scheme] if args.ar_every is None else args.ar_every,
    )


def cmd_repeater(args) -> int:
    chain = repeater.chain_columns(_chain_config(args))  # one chain
    (n,) = chain.n_stations.tolist()
    if not args.trace:
        columns = ["fidelity", "success_prob", "n_stations", "amplitude_collapsed"]
        _emit(columns, [[*chain.totals[0].tolist(), n, int(chain.amplitude_collapsed[0])]], args)
        return 0
    layout = replace(LAYOUTS[args.format])  # each period row rendered, and checked finite, once
    rows = [layout.row(["#", *row]) for row in chain.period.tolist()]
    write_output(["station", "amplitude_in", "f_factor", "p_factor"],
                 _trace_blocks(rows, layout.row_sep, n), args)
    return 0


def _trace_blocks(rows: list[str], row_sep: str, n: int, lo: int = 1):
    """Stations lo..n as bytes, station i being ``rows[(i - 1) % P]`` with its ``#`` replaced
    by i, in blocks ending every ``P * max(1, 4096 // P)`` stations and at each power of ten:
    the period rows rotated to the block's first station, with k placeholder digits, repeated
    by bytes ``*``; digit position i of consecutive stations holds runs of one digit, each
    10**(k - 1 - i) long, written in one pass as an ``np.repeat`` of ``0123456789...``."""
    P, step = len(rows), len(rows) * max(1, 4096 // len(rows))
    text = bytearray((row_sep.join(rows) + row_sep).encode()) * 2  # a rotation is a slice
    cells = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("#"))  # each row's station
    bounds = np.cumsum([0] + [len(row) + len(row_sep) for row in rows] * 2)  # row starts
    ten = np.frombuffer(b"0123456789" * (step // 5 + 2), np.uint8)  # a block has < 2 * step
    while lo <= n:
        k = len(str(lo))
        hi = min(lo - (lo - 1) % step + step, 10**k, n + 1)
        a, w = (lo - 1) % P, min(hi - lo, P)  # the rotated period: rows a .. a + w - 1
        (q, r), reps = divmod(hi - lo, w), -(-(hi - lo) // w)
        buf = text[bounds[a]:bounds[a + w]].replace(b"#", b"0" * k)
        end = q * len(buf) + bounds[a + r] - bounds[a] + (k - 1) * r - len(row_sep)
        buf *= reps
        view = np.frombuffer(buf, np.uint8).reshape(reps, -1)
        # a station's digits: k - 1 bytes on for each station before it in the period
        cols = cells[a:a + w] - bounds[a] + (k - 1) * np.arange(w)
        m = reps * w
        for i in range(k):  # lo's digit d holds for p - lo % p stations, each next for p
            p = 10 ** (k - 1 - i)
            c = min(p, m)  # runs capped at the block: a leading digit's p reaches 10**15
            x, d = max(0, lo % p + c - p), lo // p % 10  # lo sits x into runs of c
            runs = np.repeat(ten[d:d + (x + m - 1) // c + 1], c)[x:x + m]
            view[:, cols + i] = runs.reshape(reps, w)
        del view  # buf cannot resize while a view of it lives
        del buf[end:]
        yield buf
        lo = hi


def cmd_sweep(args) -> int:
    values = _entries(args.values, "--values", float)
    chains = repeater.chain_columns(repeater.sweep_config(_chain_config(args), args.axis, values))
    rows = zip(values, *chains.totals.T.tolist(), chains.amplitude_collapsed.astype(int).tolist())
    _emit([args.axis, "fidelity", "success_prob", "amplitude_collapsed"], rows, args)
    return 0


def cmd_tables(args) -> int:
    block = LONG_HAUL_REFERENCE[args.which]
    L = block["L"]
    columns = [
        "alpha", "spacing_km",
        "F_new", "F_new_ref", "F_new_dev",
        "P_new_plus", "P_new_minus", "P_new_ref", "P_new_dev",
        "F_old", "F_old_ref", "F_old_dev",
        "P_old_plus", "P_old_minus", "P_old_ref", "P_old_dev",
    ]
    # every chain of the table in one set of shape (row, scheme, sign)
    alphas, spacings = np.array([row[:2] for row in block["rows"]]).T[:, :, None, None]
    totals = iter(repeater.chain_columns(repeater.RepeaterConfig(
        total_km=args.total_km, spacing_km=spacings, spec=codes.CodeSpec(L, 2, alphas),
        coeffs=qec.BALANCED_PAIR,
        ar_every=np.array([[SCHEME_AR_EVERY["new"]], [SCHEME_AR_EVERY["old"]]]))).totals.tolist())
    rows = []
    for alpha, spacing, f_new_ref, p_new_ref, f_old_ref, p_old_ref in block["rows"]:
        row = [alpha, spacing]
        for f_ref, p_ref in ((f_new_ref, p_new_ref), (f_old_ref, p_old_ref)):
            (f_plus, p_plus), (f_minus, p_minus) = next(totals), next(totals)
            f_min = min(f_plus, f_minus)
            f_dev = "" if f_ref is None else f_min - f_ref
            p_dev = ("" if p_ref is None or p_ref == 0
                     else min(abs(p - p_ref) / p_ref for p in (p_plus, p_minus)))
            row += [f_min, "" if f_ref is None else f_ref, f_dev,
                    p_plus, p_minus, "" if p_ref is None else p_ref, p_dev]
        rows.append(row)
    _emit(columns, rows, args)
    return 0


def cmd_verify(args) -> int:
    """Cross-check every closed form against its brute-force route (``fock.checks``)."""
    from . import fock

    lines, ok = [], True
    for name, value, tol in fock.checks():
        passed = value < tol
        ok &= passed
        lines.append(f"{'ok  ' if passed else 'FAIL'} {name}: {value:.3e} (tol {tol:.0e})")
    lines.append("all checks passed" if ok else "FAILURES present")
    write_output([], ["\n".join(lines).encode()], args)
    return 0 if ok else 2


# Each flag once: its add_argument keywords (argparse's default is None).
FLAGS = {
    "--L": dict(type=int, required=True),
    "--d": dict(type=int, default=2),
    "--alpha": dict(type=float, required=True),
    "--a": dict(type=float, default=1 / np.sqrt(2)),
    "--b": dict(type=float, default=1 / np.sqrt(2)),
    "--coeffs": dict(help="comma list of complex logical amplitudes (overrides --a/--b)"),
    "--gamma-min": dict(type=float, default=0.5),
    "--gamma-max": dict(type=float, default=1.0),
    "--gamma-steps": dict(type=int, default=101),
    "--alphas": dict(default="1,2,3,4,5,6", help="comma list of amplitudes"),
    "--basis": dict(choices=["Z", "X"], default="Z"),
    "--which": dict(choices=["I", "II", "III"], required=True),
    "--total-km": dict(type=float, default=1000.0),
    "--spacing-km": dict(type=float, default=0.1),
    "--attenuation-km": dict(type=float, default=repeater.DEFAULT_ATTENUATION_KM),
    "--scheme": dict(choices=list(SCHEME_AR_EVERY), default="new"),
    "--ar-every": dict(type=int, help="restore every n-th station (overrides --scheme)"),
    "--trace": dict(action="store_true", help="emit per-station factors"),
    "--axis": dict(choices=["spacing", "alpha", "gamma"], required=True),
    "--values": dict(required=True, help="comma list of axis values"),
    "--out": dict(help="output path (stdout if omitted)"),
    "--format": dict(choices=["csv", "json"], default="csv"),
}

_CHAIN = ("--L", "--alpha", "--a", "--b", "--total-km", "--spacing-km", "--attenuation-km",
          "--scheme", "--ar-every")

# The one place a subcommand is declared: name -> (help line, the name of its
# command, its FLAGS in usage order), in usage order.
SUBCOMMANDS = {
    "weights": ("output-mixture weights over a gamma grid", "cmd_weights",
                ("--L", "--d", "--alpha", "--a", "--b", "--coeffs", "--gamma-min",
                 "--gamma-max", "--gamma-steps", "--out", "--format")),
    "fidelity": ("worst-case fidelity bound over a gamma grid", "cmd_fidelity",
                 ("--L", "--alpha", "--gamma-min", "--gamma-max", "--gamma-steps",
                  "--out", "--format")),
    "kl-report": ("correctability violations per loss count", "cmd_klreport",
                  ("--L", "--alphas", "--basis", "--out", "--format")),
    "repeater": ("simulate one communication chain", "cmd_repeater",
                 (*_CHAIN, "--trace", "--out", "--format")),
    "sweep": ("chain results along one swept axis", "cmd_sweep",
              (*_CHAIN, "--axis", "--values", "--out", "--format")),
    "tables": ("long-haul comparison vs reference values", "cmd_tables",
               ("--which", "--total-km", "--out", "--format")),
    "verify": ("closed forms vs brute-force oracles", "cmd_verify", ("--out",)),
}


def _add_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` given the flags and defaults of subcommand ``name``."""
    _, command, flags = SUBCOMMANDS[name]
    parser.set_defaults(func=globals()[command])  # as the module holds it now, wrapped or not
    for flag in flags:
        parser.add_argument(flag, **FLAGS[flag])
    if "--format" not in flags:  # verify's report
        parser.set_defaults(format="text")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: what ``catloss -h`` prints.  ``main`` builds it
    only for help, a missing or unknown subcommand and an unrecognized argument; a
    known subcommand parses with its own parser, ``catloss NAME``, whose flags come
    from the same ``_add_flags``."""
    parser = _Parser(
        prog="catloss",
        description=__doc__,
        epilog="A key=value file passed as --config PATH supplies flag "
        "defaults (a bare key sets a switch); explicit flags always win.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, _, _) in SUBCOMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_line), name)
    return parser


def _config_tokens(path: str) -> list[str]:
    """One flag token per line of a config file: ``--key=value`` for a
    ``key=value`` line, so a value may start with ``-``, and ``--key`` for a
    bare ``key`` line, which sets a switch."""
    tokens = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                key, sep, value = line.partition("=")
                key = key.strip().replace("_", "-")
                if key == "config":
                    raise ValueError(f"{path} line {n}: a config file cannot name another "
                                     "config file")
                tokens.append("--" + key + sep + value.strip())
    return tokens


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` with its ``--config`` file read in, parsed as ``build_parser()`` parses
    it: by the subcommand's own parser, or by ``build_parser()`` for help and the
    usage errors that name no subcommand or an unrecognized argument."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if any(token == "--config" or token.startswith("--config=") for token in argv):
        config = _Parser(prog="catloss", add_help=False, allow_abbrev=False)
        config.add_argument("--config", metavar="PATH")
        known, argv = config.parse_known_args(argv)
        if known.config is not None:
            # right after the subcommand: explicit flags win, as argparse keeps the last
            argv = argv[:1] + _config_tokens(known.config) + argv[1:]
    if argv and argv[0] in SUBCOMMANDS:  # the full parser hands argv[1:] to this parser
        parser = _add_flags(_Parser(prog=f"catloss {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)  # prints help or the usage error, and exits


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
        # warnings (numpy's floating-point ones too) wait for the command to return,
        # so a failure prints one line; catch_warnings would reset their registries
        caught, show = [], warnings.showwarning
        warnings.showwarning = lambda *warning: caught.append(warning)
        try:
            code = args.func(args)
        finally:
            warnings.showwarning = show
        for warning in caught:
            show(*warning)
        return code
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
