"""Command-line front end.

Each subcommand emits one deterministic dataset through one writer: CSV or
JSON (floats at 17 significant digits, no timestamps), or ``verify``'s text
report, plus with ``--out`` a manifest JSON of the resolved parameters, library
version and data sha256.  A negative value may be a separate token (``-1e-3``).

Exit codes: 0 success, 1 usage or validation error (any ``ValueError``, an
unreadable file, exhausted memory, a chain transmission that underflows to 0),
2 a failed ``verify`` check, or a numerical failure that writes nothing: an
arithmetic failure (overflow, a tripped clamp) or a non-finite output value.
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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, cycle, islice

import numpy as np

from . import __version__, channel, codes, fock, qec, repeater, restore

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


def _fmt(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite value {value} in output")
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class _Layout:
    """A dataset is ``head(columns)``, the rows joined by ``row_sep``, then
    ``foot``; a row is ``row_open``, cells joined by ``cell_sep``, then ``row_close``."""

    cell: Callable[[object], str]
    head: Callable[[list[str]], str]
    row_open: str = ""
    cell_sep: str = ","
    row_close: str = ""
    row_sep: str = "\n"
    foot: str = "\n"

    def row(self, values) -> str:
        return self.row_open + self.cell_sep.join(map(self.cell, values)) + self.row_close


def _json_cell(value) -> str:
    # the bytes of json.dumps, with floats as 17-digit strings
    if isinstance(value, (float, str)):
        return json.encoder.encode_basestring_ascii(_fmt(value))
    return json.dumps(value)


LAYOUTS = {
    "csv": _Layout(cell=_fmt, head=lambda columns: ",".join(columns) + "\n"),
    "json": _Layout(
        cell=_json_cell,
        # json.dumps of the columns and no rows, cut after the rows' "["
        head=lambda columns: json.dumps({"columns": columns, "rows": []}, indent=2)[:-3] + "\n",
        row_open="    [\n      ", cell_sep=",\n      ", row_close="\n    ]",
        row_sep=",\n", foot="\n  ]\n}\n",
    ),
    "text": _Layout(cell=str, head=lambda columns: ""),  # verify's report; not a --format
}


def write_output(columns: list[str], blocks: Iterable[str], args) -> None:
    """Stream ``head``, the blocks (each one or more rows joined by ``row_sep``) with
    ``row_sep`` between them, then ``foot`` of ``LAYOUTS[args.format]`` to stdout, or to
    ``--out`` hashed as written plus a manifest whose params are the parsed ``args``."""
    layout = LAYOUTS[args.format]
    blocks = iter(blocks)
    chunks = chain([layout.head(columns), next(blocks, "")],
                   (layout.row_sep + block for block in blocks), [layout.foot])
    if args.out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (``| head``): stop quietly, devnull takes the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    digest = hashlib.sha256()
    with open(args.out, "wb") as fh:
        for data in map(str.encode, chunks):
            digest.update(data)
            fh.write(data)
    manifest = {
        "subcommand": args.subcommand,
        "params": {k: v for k, v in vars(args).items() if k != "func"},
        "version": __version__,
        "output_sha256": digest.hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(str(args.out) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(columns, rows, args):
    # every row is rendered, and checked finite, before the first byte goes out
    layout = LAYOUTS[args.format]
    write_output(columns, [layout.row_sep.join(map(layout.row, rows))], args)


def _gamma_grid(args) -> np.ndarray:
    if not 0.0 < args.gamma_min <= args.gamma_max <= 1.0:
        raise ValueError("need 0 < gamma-min <= gamma-max <= 1")
    if args.gamma_steps < 1:
        raise ValueError(f"need gamma-steps >= 1, got {args.gamma_steps}")
    return np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)


def _coeffs(args, d: int) -> codes.LogicalCoeffs:
    if getattr(args, "coeffs", None):
        raw = [complex(tok) for tok in args.coeffs.split(",")]
        if len(raw) != d:
            raise ValueError(f"--coeffs needs {d} entries, got {len(raw)}")
        return codes.LogicalCoeffs.of(*raw)
    if d != 2:
        return codes.LogicalCoeffs.balanced(d)
    return codes.LogicalCoeffs.of(args.a, args.b)


def cmd_weights(args) -> int:
    spec = codes.CodeSpec(args.L, args.d, args.alpha)
    coeffs = _coeffs(args, spec.d)
    grid = _gamma_grid(args)
    columns = ["gamma"] + [f"ptilde_{j}" for j in range(spec.cycle)]
    w = channel.mixture_weights(spec, coeffs, channel.ChannelParams(grid))
    _emit(columns, np.column_stack([grid, w.ptilde]).tolist(), args)
    return 0


def cmd_fidelity(args) -> int:
    spec = codes.CodeSpec(args.L, 2, args.alpha)
    grid = _gamma_grid(args)
    bound = qec.fidelity_bound(spec, channel.ChannelParams(grid))
    rows = np.column_stack([grid, bound.F_of_ab, bound.F_minus, bound.F_bound]).tolist()
    _emit(["gamma", "F_plus", "F_minus", "F_bound"], rows, args)
    return 0


def _qubit_spec(L: int, alpha: float) -> codes.CodeSpec:
    """A qubit code whose small-amplitude warning is left to the batch that runs it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return codes.CodeSpec(L, 2, alpha)


def cmd_klreport(args) -> int:
    specs = [_qubit_spec(args.L, float(tok)) for tok in args.alphas.split(",")]
    codes.CodeSpec(args.L, 2, np.array([s.alpha for s in specs]))  # one warning for them all
    max_loss = 2 * args.L + 1
    columns = ["alpha"] + [f"{k}_{i}" for i in range(max_loss + 1) for k in ("ortho", "deform")]
    rows = []
    for spec in specs:
        row = [spec.alpha]
        for i in range(max_loss + 1):
            report = qec.kl_check(spec, args.basis, i, i)
            row += [report.ortho_violation, report.deform_violation]
        rows.append(row)
    _emit(columns, rows, args)
    return 0


def _chain_config(args) -> repeater.RepeaterConfig:
    return repeater.RepeaterConfig(
        total_km=args.total_km,
        spacing_km=args.spacing_km,
        spec=_qubit_spec(args.L, args.alpha),  # the chain set's batch warns once
        coeffs=_coeffs(args, 2),
        attenuation_km=args.attenuation_km,
        ar_every=SCHEME_AR_EVERY[args.scheme] if args.ar_every is None else args.ar_every,
    )


def cmd_repeater(args) -> int:
    (result,) = repeater.simulate_chains([_chain_config(args)])
    if not args.trace:
        columns = ["fidelity", "success_prob", "n_stations", "amplitude_collapsed"]
        _emit(columns, [[result.fidelity, result.success_prob, result.n_stations,
                         int(result.amplitude_collapsed)]], args)
        return 0
    # station i repeats period row (i - 1) mod P: each row is rendered, and checked finite,
    # into a template whose one % (floats hold none) is the station; a block is one %-format
    layout = LAYOUTS[args.format]
    templates = [layout.row(["%d", *row]) for row in result.period.tolist()]
    n, step = result.n_stations, len(templates) * max(1, 4096 // len(templates))
    blocks = (layout.row_sep.join(islice(cycle(templates), min(step, n + 1 - lo)))
              % tuple(range(lo, min(lo + step, n + 1))) for lo in range(1, n + 1, step))
    columns = ["station", "amplitude_in", "f_factor", "p_factor"]
    write_output(columns, blocks, args)
    return 0


def cmd_sweep(args) -> int:
    values = [float(tok) for tok in args.values.split(",")]
    config = _chain_config(args)
    rows = [
        [v, r.fidelity, r.success_prob, int(r.amplitude_collapsed)]
        for v, r in zip(values, repeater.sweep(config, args.axis, values))
    ]
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
    # every chain of the table in one batch, ordered (row, scheme, sign)
    chains = iter(repeater.simulate_chains([
        repeater.RepeaterConfig(
            total_km=args.total_km, spacing_km=spacing, spec=codes.CodeSpec(L, 2, alpha),
            coeffs=codes.LogicalCoeffs.balanced(sign=sign), ar_every=SCHEME_AR_EVERY[scheme],
        )
        for alpha, spacing, *_ in block["rows"] for scheme in ("new", "old") for sign in (1, -1)
    ]))
    rows = []
    for alpha, spacing, f_new_ref, p_new_ref, f_old_ref, p_old_ref in block["rows"]:
        row = [alpha, spacing]
        for f_ref, p_ref in ((f_new_ref, p_new_ref), (f_old_ref, p_old_ref)):
            results = {sign: next(chains) for sign in (1, -1)}
            f_min = min(results[1].fidelity, results[-1].fidelity)
            p_plus, p_minus = results[1].success_prob, results[-1].success_prob
            f_dev = "" if f_ref is None else _fmt(f_min - f_ref)
            p_dev = (
                ""
                if p_ref is None or p_ref == 0
                else _fmt(min(abs(p - p_ref) / p_ref for p in (p_plus, p_minus)))
            )
            row += [f_min, "" if f_ref is None else f_ref, f_dev,
                    p_plus, p_minus, "" if p_ref is None else p_ref, p_dev]
        rows.append(row)
    _emit(columns, rows, args)
    return 0


def _check(name: str, value: float, tol: float, lines: list[str]) -> bool:
    ok = value < tol
    lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.0e})")
    return ok


def cmd_verify(args) -> int:
    """Cross-check every closed form against its brute-force route."""
    lines: list[str] = []
    ok = True

    a, b = 1.0, 1.0j
    expected = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    got = np.vdot(fock.coherent_state(a), fock.coherent_state(b))
    ok &= _check("coherent-overlap closed form", abs(got - expected), 1e-12, lines)

    spec = codes.CodeSpec(2, 2, 3.0)
    diff = np.linalg.norm(codes.codeword_fock(spec, 1, 1) - codes.codeword_coherent(spec, 1, 1))
    ok &= _check("fock/coherent codeword equivalence", diff, 1e-10, lines)

    res = codes.verify_code_equations(spec, 1, 1)
    ok &= _check("code-equation residuals", max(res.parity, res.lowering), 1e-9, lines)

    params = channel.ChannelParams(0.9)
    p_closed = channel.class_probabilities(spec, params)
    p_kraus = channel.class_probabilities_kraus(spec, params)
    ok &= _check("loss-class probabilities vs Kraus norms",
                 float(np.max(np.abs(p_closed - p_kraus))), 1e-10, lines)

    for L, d, alpha in ((1, 2, 2.0), (2, 2, 3.0), (1, 3, 2.0)):
        spec_i = codes.CodeSpec(L, d, alpha)
        coeffs = codes.LogicalCoeffs.balanced(d)
        psi = channel.encode(spec_i, coeffs)
        rho_in = np.outer(psi, psi.conj())
        exact = channel.channel_apply_exact(rho_in, params)
        mixed = fock.mix(channel.logical_mixture(spec_i, coeffs, params))
        ok &= _check(f"mixture vs exact channel (L={L}, d={d})",
                     fock.trace_distance(exact, mixed), 1e-8, lines)
        w = channel.mixture_weights(spec_i, coeffs, params)
        ok &= _check(f"weights sum to one (L={L}, d={d})",
                     abs(float(np.sum(w.ptilde)) - 1.0), 1e-10, lines)

    fp = restore.filter_params(0.3 + 0.2j)
    a_s, a_f = restore.filter_operators(fp)
    povm = a_s.T.conj() @ a_s + a_f.T.conj() @ a_f
    ok &= _check("filter POVM completeness",
                 float(np.max(np.abs(povm - np.eye(2)))), 1e-12, lines)

    spec_t = codes.CodeSpec(1, 2, 2.0)
    ct = codes.LogicalCoeffs.of(1.0, 1.0j)
    closed = restore.teleport_success_from_weights(
        channel.mixture_weights(spec_t, ct, channel.ChannelParams(0.95)), 1, ct)
    assembled = restore.teleport_success_assembled(spec_t, 1, channel.ChannelParams(0.95), ct)
    ok &= _check("teleport success vs assembled state", abs(closed - assembled), 1e-9, lines)

    lines.append("all checks passed" if ok else "FAILURES present")
    write_output([], ["\n".join(lines)], args)
    return 0 if ok else 2


def _add_common(p):
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_gamma_grid(p):
    p.add_argument("--gamma-min", type=float, default=0.5)
    p.add_argument("--gamma-max", type=float, default=1.0)
    p.add_argument("--gamma-steps", type=int, default=101)


def _add_qubit_amplitudes(p):
    p.add_argument("--a", type=float, default=1 / np.sqrt(2))
    p.add_argument("--b", type=float, default=1 / np.sqrt(2))


def _add_chain(p):
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_qubit_amplitudes(p)
    p.add_argument("--total-km", type=float, default=1000.0)
    p.add_argument("--spacing-km", type=float, default=0.1)
    p.add_argument("--attenuation-km", type=float, default=repeater.DEFAULT_ATTENUATION_KM)
    p.add_argument("--scheme", choices=list(SCHEME_AR_EVERY), default="new")
    p.add_argument("--ar-every", type=int, default=None,
                   help="restore every n-th station (overrides --scheme)")


def _weights_flags(p):
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", type=float, required=True)
    _add_qubit_amplitudes(p)
    p.add_argument("--coeffs", default=None,
                   help="comma list of complex logical amplitudes (overrides --a/--b)")
    _add_gamma_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_weights)


def _fidelity_flags(p):
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_gamma_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)


def _klreport_flags(p):
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alphas", default="1,2,3,4,5,6", help="comma list of amplitudes")
    p.add_argument("--basis", choices=["Z", "X"], default="Z")
    _add_common(p)
    p.set_defaults(func=cmd_klreport)


def _repeater_flags(p):
    _add_chain(p)
    p.add_argument("--trace", action="store_true", help="emit per-station factors")
    _add_common(p)
    p.set_defaults(func=cmd_repeater)


def _sweep_flags(p):
    _add_chain(p)
    p.add_argument("--axis", choices=["spacing", "alpha", "gamma"], required=True)
    p.add_argument("--values", required=True, help="comma list of axis values")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)


def _tables_flags(p):
    p.add_argument("--which", choices=["I", "II", "III"], required=True)
    p.add_argument("--total-km", type=float, default=1000.0)
    _add_common(p)
    p.set_defaults(func=cmd_tables)


def _verify_flags(p):
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_verify, format="text")


# The one place a subcommand is declared: name -> (help line, flag adder), in usage order.
SUBCOMMANDS = {
    "weights": ("output-mixture weights over a gamma grid", _weights_flags),
    "fidelity": ("worst-case fidelity bound over a gamma grid", _fidelity_flags),
    "kl-report": ("correctability violations per loss count", _klreport_flags),
    "repeater": ("simulate one communication chain", _repeater_flags),
    "sweep": ("chain results along one swept axis", _sweep_flags),
    "tables": ("long-haul comparison vs reference values", _tables_flags),
    "verify": ("closed forms vs brute-force oracles", _verify_flags),
}


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or given a name in ``SUBCOMMANDS`` one
    holding only that subcommand's subparser (argparse builds a help formatter
    per flag, so this saves the other six); either prints the same usage line."""
    parser = _Parser(
        prog="catloss",
        description=__doc__,
        epilog="A key=value file passed as --config PATH supplies flag "
        "defaults (a bare key sets a switch); explicit flags always win.",
    )
    if subcommand in SUBCOMMANDS:  # the metavar argparse derives from all the choices
        names, metavar = [subcommand], "{" + ",".join(SUBCOMMANDS) + "}"
    else:  # no metavar, so argparse's errors name the action "subcommand"
        names, metavar = list(SUBCOMMANDS), None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        help_line, add_flags = SUBCOMMANDS[name]
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def _config_tokens(path: str) -> list[str]:
    """One flag token per line of a config file: ``--key=value`` for a
    ``key=value`` line, so a value may start with ``-``, and ``--key`` for a
    bare ``key`` line, which sets a switch."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, sep, value = line.partition("=")
                tokens.append("--" + key.strip().replace("_", "-") + sep + value.strip())
    return tokens


def main(argv: list[str] | None = None) -> int:
    config = _Parser(prog="catloss", add_help=False, allow_abbrev=False)
    config.add_argument("--config", metavar="PATH")
    try:
        known, argv = config.parse_known_args(argv)
        if known.config is not None:
            # right after the subcommand: explicit flags win, as argparse keeps the last
            argv = argv[:1] + _config_tokens(known.config) + argv[1:]
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
