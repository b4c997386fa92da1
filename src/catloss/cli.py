"""Command-line front end.

Each subcommand emits one deterministic dataset (CSV or JSON; floats at 17
significant digits, no timestamps inside the data).  When an output path is
given, a manifest JSON with the resolved parameters, library version and a
checksum of the data bytes is written alongside it.

Exit codes: 0 success, 1 usage or validation error, 2 numerical failure:
a failed ``verify`` check, an arithmetic failure (overflow, a tripped clamp)
or a non-finite value in the output, in which case nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice

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


class CliError(Exception):
    """Validation failure that should exit with status 1."""


class _Parser(argparse.ArgumentParser):
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
}


def write_output(layout: _Layout, columns: list[str], rows: Iterable[str], args,
                 extra_params: dict) -> None:
    """Stream rendered rows to stdout, or to ``--out`` hashed as written plus a manifest."""
    # rows go out in batches: few writes, and a 10^5-row trace is never one string
    rows = iter(rows)
    batches = iter(lambda: layout.row_sep.join(islice(rows, 4096)), "")
    chunks = chain([layout.head(columns), next(batches, "")],
                   (layout.row_sep + batch for batch in batches), [layout.foot])
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
        "params": extra_params,
        "version": __version__,
        "output_sha256": digest.hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(str(args.out) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(columns, rows, args, params):
    # every row is rendered, and checked finite, before the first byte goes out
    layout = LAYOUTS[args.format]
    write_output(layout, columns, [layout.row(row) for row in rows], args, params)


def _gamma_grid(args) -> np.ndarray:
    if not 0.0 < args.gamma_min <= args.gamma_max <= 1.0:
        raise CliError("need 0 < gamma-min <= gamma-max <= 1")
    if args.gamma_steps < 1:
        raise CliError(f"need gamma-steps >= 1, got {args.gamma_steps}")
    return np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)


def _coeffs(args, d: int) -> codes.LogicalCoeffs:
    if getattr(args, "coeffs", None):
        raw = [complex(tok) for tok in args.coeffs.split(",")]
        if len(raw) != d:
            raise CliError(f"--coeffs needs {d} entries, got {len(raw)}")
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
    _emit(columns, np.column_stack([grid, w.ptilde]).tolist(), args, _params(args))
    return 0


def cmd_fidelity(args) -> int:
    spec = codes.CodeSpec(args.L, 2, args.alpha)
    grid = _gamma_grid(args)
    bound = qec.fidelity_bound(spec, channel.ChannelParams(grid))
    rows = np.column_stack([grid, bound.F_of_ab, bound.F_minus, bound.F_bound]).tolist()
    _emit(["gamma", "F_plus", "F_minus", "F_bound"], rows, args, _params(args))
    return 0


def cmd_klreport(args) -> int:
    spec_alphas = [float(tok) for tok in args.alphas.split(",")]
    max_loss = 2 * args.L + 1
    columns = ["alpha"]
    for i in range(max_loss + 1):
        columns += [f"ortho_{i}", f"deform_{i}"]
    rows = []
    for alpha in spec_alphas:
        spec = codes.CodeSpec(args.L, 2, alpha)
        row = [alpha]
        for i in range(max_loss + 1):
            report = qec.kl_check(spec, args.basis, i, i)
            row += [report.ortho_violation, report.deform_violation]
        rows.append(row)
    _emit(columns, rows, args, _params(args))
    return 0


def _chain_config(args) -> repeater.RepeaterConfig:
    return repeater.RepeaterConfig(
        total_km=args.total_km,
        spacing_km=args.spacing_km,
        spec=codes.CodeSpec(args.L, 2, args.alpha),
        coeffs=codes.LogicalCoeffs.of(args.a, args.b),
        attenuation_km=args.attenuation_km,
        ar_every=SCHEME_AR_EVERY[args.scheme] if args.ar_every is None else args.ar_every,
    )


def cmd_repeater(args) -> int:
    result = repeater.simulate_chain(_chain_config(args))
    if not args.trace:
        columns = ["fidelity", "success_prob", "n_stations", "amplitude_collapsed"]
        rows = [[result.fidelity, result.success_prob, result.n_stations,
                 int(result.amplitude_collapsed)]]
        _emit(columns, rows, args, _params(args))
        return 0
    # station i repeats period row (i - 1) mod len(period): render each row's cells once
    layout = LAYOUTS[args.format]
    tails = [layout.cell_sep + layout.cell_sep.join(map(layout.cell, row)) + layout.row_close
             for row in result.period.tolist()]
    rows = (layout.row_open + layout.cell(str(i)) + tails[(i - 1) % len(tails)]
            for i in range(1, result.n_stations + 1))
    columns = ["station", "amplitude_in", "f_factor", "p_factor"]
    write_output(layout, columns, rows, args, _params(args))
    return 0


def cmd_sweep(args) -> int:
    values = [float(tok) for tok in args.values.split(",")]
    config = _chain_config(args)
    rows = [
        [v, r.fidelity, r.success_prob, int(r.amplitude_collapsed)]
        for v, r in zip(values, repeater.sweep(config, args.axis, values))
    ]
    _emit([args.axis, "fidelity", "success_prob", "amplitude_collapsed"], rows, args,
          _params(args))
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
    _emit(columns, rows, args, _params(args))
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
    got = fock.inner(fock.coherent_state(a), fock.coherent_state(b))
    ok &= _check("coherent-overlap closed form", abs(got - expected), 1e-12, lines)

    spec = codes.CodeSpec(2, 2, 3.0)
    diff = (codes.codeword_fock(spec, 1, 1) - codes.codeword_coherent(spec, 1, 1)).norm()
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
        rho_in = fock.outer(channel.encode(spec_i, coeffs))
        exact = channel.channel_apply_exact(rho_in, params)
        mixed = fock.mix(
            [(c.weight, c.state) for c in channel.logical_mixture(spec_i, coeffs, params)]
        )
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
    closed = restore.teleport_success(spec_t, 1, channel.ChannelParams(0.95), ct)
    assembled = restore.teleport_success_assembled(spec_t, 1, channel.ChannelParams(0.95), ct)
    ok &= _check("teleport success vs assembled state", abs(closed - assembled), 1e-9, lines)

    text = "\n".join(lines) + "\n" + ("all checks passed\n" if ok else "FAILURES present\n")
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if ok else 2


def _params(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catloss",
        description=__doc__,
        epilog="A key=value file passed as --config PATH supplies flag "
        "defaults (a bare key sets a switch); explicit flags always win.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("weights", help="output-mixture weights over a gamma grid")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", type=float, required=True)
    _add_qubit_amplitudes(p)
    p.add_argument("--coeffs", default=None,
                   help="comma list of complex logical amplitudes (overrides --a/--b)")
    _add_gamma_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("fidelity", help="worst-case fidelity bound over a gamma grid")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_gamma_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("kl-report", help="correctability violations per loss count")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--alphas", default="1,2,3,4,5,6", help="comma list of amplitudes")
    p.add_argument("--basis", choices=["Z", "X"], default="Z")
    _add_common(p)
    p.set_defaults(func=cmd_klreport)

    p = sub.add_parser("repeater", help="simulate one communication chain")
    _add_chain(p)
    p.add_argument("--trace", action="store_true", help="emit per-station factors")
    _add_common(p)
    p.set_defaults(func=cmd_repeater)

    p = sub.add_parser("sweep", help="chain results along one swept axis")
    _add_chain(p)
    p.add_argument("--axis", choices=["spacing", "alpha", "gamma"], required=True)
    p.add_argument("--values", required=True, help="comma list of axis values")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="long-haul comparison vs reference values")
    p.add_argument("--which", choices=["I", "II", "III"], required=True)
    p.add_argument("--total-km", type=float, default=1000.0)
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="closed forms vs brute-force oracles")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _split_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """Pull --config PATH out of the argument list."""
    path = None
    cleaned: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise CliError("--config needs a path")
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            cleaned.append(tok)
            i += 1
    return path, cleaned


def _apply_config_file(path: str, argv: list[str]) -> list[str]:
    """Insert file-supplied defaults (``key=value``, or a bare ``key`` for a
    switch) right after the subcommand token, so explicitly passed flags
    still win under argparse's last-one-wins rule."""
    defaults: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in argv:
                defaults += [flag, value.strip()] if sep else [flag]  # a bare key is a switch
    if not argv:
        return defaults
    return argv[:1] + defaults + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path, argv = _split_config(argv)
        if config_path is not None:
            argv = _apply_config_file(config_path, argv)
        args = parser.parse_args(argv)
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
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
