"""Command-line interface: outputs, manifests, determinism, exit codes."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import catloss
from catloss import channel, cli, codes, fock, repeater
from catloss.channel import ChannelParams
from catloss.cli import FLAGS, LAYOUTS, SUBCOMMANDS, _chain_config, build_parser, main
from catloss.codes import CodeSpec
from catloss.qec import fidelity_bound
from catloss.repeater import simulate_chains
from conftest import assert_chain_totals, record_calls


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# one small dataset per subcommand that writes one
DATASETS = {
    "weights": ["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
    "fidelity": ["fidelity", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
    "kl-report": ["kl-report", "--L", "1", "--alphas", "2,3"],
    "repeater": ["repeater", "--L", "1", "--alpha", "2", "--total-km", "1",
                 "--spacing-km", "0.5"],
    "repeater-trace": ["repeater", "--L", "1", "--alpha", "2", "--total-km", "3.5",
                       "--spacing-km", "0.5", "--ar-every", "2", "--trace"],
    "sweep": ["sweep", "--L", "1", "--alpha", "2", "--total-km", "1",
              "--axis", "spacing", "--values", "0.1,0.5"],
    "tables": ["tables", "--which", "I", "--total-km", "1"],
}

# one call of every subcommand: the datasets, then verify's report
CALLS = {**DATASETS, "verify": ["verify"]}

WEIGHTS = ["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "3"]

# the CLI's interface: each subcommand's flags in usage order, and each flag's (dest,
# default, required, choices, type, nargs, help), written out apart from cli.FLAGS so
# that any edit to the table shows here
_CHAIN = "--L --alpha --a --b --total-km --spacing-km --attenuation-km --scheme --ar-every"
SUBCOMMAND_FLAGS = {
    "weights": "--L --d --alpha --a --b --coeffs --gamma-min --gamma-max --gamma-steps"
               " --out --format",
    "fidelity": "--L --alpha --gamma-min --gamma-max --gamma-steps --out --format",
    "kl-report": "--L --alphas --basis --out --format",
    "repeater": _CHAIN + " --trace --out --format",
    "sweep": _CHAIN + " --axis --values --out --format",
    "tables": "--which --total-km --out --format",
    "verify": "--out",
}
FLAG_INTERFACE = {
    "--L": ("L", None, True, None, int, None, None),
    "--d": ("d", 2, False, None, int, None, None),
    "--alpha": ("alpha", None, True, None, float, None, None),
    "--a": ("a", 0.7071067811865475, False, None, float, None, None),
    "--b": ("b", 0.7071067811865475, False, None, float, None, None),
    "--coeffs": ("coeffs", None, False, None, None, None,
                 "comma list of complex logical amplitudes (overrides --a/--b)"),
    "--gamma-min": ("gamma_min", 0.5, False, None, float, None, None),
    "--gamma-max": ("gamma_max", 1.0, False, None, float, None, None),
    "--gamma-steps": ("gamma_steps", 101, False, None, int, None, None),
    "--alphas": ("alphas", "1,2,3,4,5,6", False, None, None, None, "comma list of amplitudes"),
    "--basis": ("basis", "Z", False, ["Z", "X"], None, None, None),
    "--which": ("which", None, True, ["I", "II", "III"], None, None, None),
    "--total-km": ("total_km", 1000.0, False, None, float, None, None),
    "--spacing-km": ("spacing_km", 0.1, False, None, float, None, None),
    "--attenuation-km": ("attenuation_km", 22.0, False, None, float, None, None),
    "--scheme": ("scheme", "new", False, ["old", "new"], None, None, None),
    "--ar-every": ("ar_every", None, False, None, int, None,
                   "restore every n-th station (overrides --scheme)"),
    "--trace": ("trace", False, False, None, None, 0, "emit per-station factors"),
    "--axis": ("axis", None, True, ["spacing", "alpha", "gamma"], None, None, None),
    "--values": ("values", None, True, None, None, None, "comma list of axis values"),
    "--out": ("out", None, False, None, None, None, "output path (stdout if omitted)"),
    "--format": ("format", "csv", False, ["csv", "json"], None, None, None),
}


class TestWeights:
    def test_no_loss_row(self, capsys):
        code, out = run(
            ["weights", "--L", "1", "--alpha", "2",
             "--gamma-min", "1", "--gamma-max", "1", "--gamma-steps", "1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "ptilde_0", "ptilde_1", "ptilde_2", "ptilde_3"]
        values = [float(v) for v in rows[0]]
        assert values == [1.0, 1.0, 0.0, 0.0, 0.0]

    def test_weights_sum_to_one_per_row(self, capsys):
        code, out = run(
            ["weights", "--L", "2", "--alpha", "3",
             "--gamma-min", "0.6", "--gamma-max", "1", "--gamma-steps", "5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(sum(float(v) for v in row[1:]) - 1.0) < 1e-10

    @pytest.mark.parametrize("base,scaled,unit", [
        (WEIGHTS, ["--a", "1e200", "--b", "1e200"], ["--a", "1", "--b", "1"]),
        (WEIGHTS, ["--a", "1e-200", "--b", "1e-200"], ["--a", "1", "--b", "1"]),
        (WEIGHTS, ["--coeffs", "1e-170,1e-170j"], ["--coeffs", "1,1j"]),
        (["repeater", "--L", "4", "--alpha", "7", "--total-km", "1", "--spacing-km", "1"],
         ["--a", "1e300", "--b=-1e300"], ["--a", "1", "--b=-1"]),
        (WEIGHTS, ["--a", "1e-160", "--b", "1e-160"], ["--a", "1", "--b", "1"]),
    ])
    def test_amplitudes_of_any_finite_size(self, base, scaled, unit, capsys):
        # squares that overflow or underflow still normalize, to the same bytes
        code, out = run(base + scaled, capsys)
        assert code == 0
        assert out == run(base + unit, capsys)[1]

    # on the Gram route the first five exited 2 with NaN or wrote negative
    # weights, --L 50 tripped the filter's clamp and --L 100000 ran past 60 s
    @pytest.mark.filterwarnings("ignore:alpha=0.001:UserWarning")
    @pytest.mark.parametrize("flags", [
        "--L 1 --alpha 30 --gamma-steps 2",
        "--L 1 --alpha 1e4 --gamma-steps 2",
        "--L 3 --alpha 0.5 --gamma-min 5e-324 --gamma-max 5e-324 --gamma-steps 1",
        "--L 5 --d 2 --alpha 1e-3 --gamma-steps 4",
        "--L 7 --d 4 --alpha 0.2 --gamma-steps 3",
        "--L 50 --alpha 5",
        "--L 100000 --alpha 2 --gamma-steps 2",
    ])
    def test_weights_are_probabilities_over_the_domain(self, flags, capsys):
        code, out = run(["weights", *flags.split()], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        weights = np.array(rows, dtype=float)[:, 1:]
        assert np.all(np.isfinite(weights)) and np.all((weights >= 0) & (weights <= 1))
        assert np.all(abs(weights.sum(axis=1) - 1.0) <= 1e-10)

    def test_runs_no_gram_kernel_filter_or_class_probabilities(self, monkeypatch, capsys):
        # nor does fidelity, which reads the same class-sum weights
        def refuse(*args, **kwargs):
            raise AssertionError("the weights or fidelity path reached the Gram route")

        for name in ("catloss.channel.mixture_weights", "catloss.channel.class_probabilities",
                     "catloss.channel.gram_matrix", "catloss.channel.sectioned_exp",
                     "catloss.codes.sectioned_exp", "catloss.codes._coherent_gram"):
            monkeypatch.setattr(name, refuse)
        for d in ("2", "4"):
            assert run(["weights", "--L", "6", "--d", d, "--alpha", "8"], capsys)[0] == 0
        assert run(["fidelity", "--L", "6", "--alpha", "8"], capsys)[0] == 0

    def test_qutrit_weights(self, capsys):
        code, out = run(
            ["weights", "--L", "1", "--d", "3", "--alpha", "2",
             "--gamma-min", "0.9", "--gamma-max", "0.9", "--gamma-steps", "1"],
            capsys,
        )
        assert code == 0
        header, _ = parse_csv(out)
        assert len(header) == 7

    @pytest.mark.parametrize("flags", [
        ["--coeffs", "1,1,1", "--a", "0.3", "--b", "0.1"],  # --coeffs overrides --a/--b
        ["--a", repr(1 / math.sqrt(2)), "--b", repr(1 / math.sqrt(2))],  # the defaults
    ])
    def test_qutrit_takes_the_default_or_overridden_qubit_flags(self, flags, capsys):
        base = ["weights", "--L", "1", "--d", "3", "--alpha", "2", "--gamma-steps", "3"]
        code, out = run(base + flags, capsys)
        assert code == 0
        assert out == run(base, capsys)[1]


class TestFidelity:
    def test_no_loss_row(self, capsys):
        code, out = run(
            ["fidelity", "--L", "1", "--alpha", "2",
             "--gamma-min", "1", "--gamma-max", "1", "--gamma-steps", "1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["gamma", "F_plus", "F_minus", "F_bound"]
        assert all(abs(float(v) - 1.0) < 1e-12 for v in rows[0][1:])

    def test_bound_is_min(self, capsys):
        _, out = run(
            ["fidelity", "--L", "2", "--alpha", "3",
             "--gamma-min", "0.7", "--gamma-max", "0.9", "--gamma-steps", "3"],
            capsys,
        )
        _, rows = parse_csv(out)
        for row in rows:
            f_plus, f_minus, f_bound = map(float, row[1:])
            assert f_bound == min(f_plus, f_minus)

    def test_columns_are_fidelity_bound(self, capsys):
        _, out = run(
            ["fidelity", "--L", "2", "--alpha", "3",
             "--gamma-min", "0.7", "--gamma-max", "0.9", "--gamma-steps", "3"],
            capsys,
        )
        _, rows = parse_csv(out)
        for row in rows:
            gamma, f_plus, f_minus, f_bound = map(float, row)
            res = fidelity_bound(CodeSpec(2, 2, 3.0), ChannelParams(gamma))
            assert (f_plus, f_minus, f_bound) == (res.F_plus, res.F_minus, res.F_bound)


class TestKlReport:
    def test_violations_decay(self, capsys):
        code, out = run(
            ["kl-report", "--L", "1", "--alphas", "1,2,3,4,5,6", "--basis", "Z"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "alpha"
        ortho0 = [float(r[header.index("ortho_0")]) for r in rows]
        assert ortho0[-1] < ortho0[1] < ortho0[0]
        deform = [float(r[header.index("deform_1")]) for r in rows]
        assert max(deform) < 1e-12

    def test_builds_each_word_once_per_amplitude(self, monkeypatch, capsys):
        # one kl_check per amplitude builds its two basis words once, in one call,
        # not once per loss count: 12 words in 6 calls for six amplitudes
        built, real = [], fock.codeword_fock
        monkeypatch.setattr("catloss.fock.codeword_fock",
                            lambda *a, **kw: built.append(real(*a, **kw)) or built[-1])
        for basis in ("Z", "X"):
            built.clear()
            assert run(["kl-report", "--L", "1", "--alphas", "1,2,3,4,5,6", "--basis", basis],
                       capsys)[0] == 0
            assert len(built) == 6
            assert sum(len(np.atleast_2d(words)) for words in built) == 12

    def test_collinear_x_basis_is_one(self, capsys):
        # at alpha = 1e-300 the two codewords are equal, so w0 - w1 is zero
        code = main(["kl-report", "--L", "1", "--alphas", "1e-300", "--basis", "X"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "1e-300" in captured.err and "collinear" in captured.err


class TestRepeaterCommands:
    def test_single_chain_summary(self, capsys):
        code, out = run(
            ["repeater", "--L", "4", "--alpha", "7", "--total-km", "10",
             "--spacing-km", "0.5", "--scheme", "new"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["fidelity", "success_prob", "n_stations", "amplitude_collapsed"]
        assert int(rows[0][2]) == 20

    def test_trace_output(self, capsys):
        code, out = run(
            ["repeater", "--L", "1", "--alpha", "2", "--total-km", "1",
             "--spacing-km", "0.5", "--scheme", "old", "--trace"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_probabilities_never_exceed_one(self, capsys):
        # a restoration factor 9 ulps above 1, raised to 10^5 stations
        code, out = run(["repeater", "--L", "1", "--alpha", "6", "--spacing-km", "0.01",
                         "--scheme", "old"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert 0.0 <= float(rows[0][0]) <= 1.0 and 0.0 <= float(rows[0][1]) <= 1.0

    def test_trace_rows_repeat_the_period(self, tmp_path, capsys):
        # station i repeats period row (i - 1) mod P, P = min(ar_every, n); the trace
        # goes out in blocks of P * max(1, 4096 // P) stations (4095 for P = 3 and 7),
        # cut again where the station number gains a digit, so the counts straddle a
        # block edge and each power of ten up to 10^4, which for P = 3 and 7 falls
        # mid-period; n = ar_every - 1 is a chain shorter than its ar_every, whose
        # period has only n rows; a 4100-row period is longer than a 4096-station
        # block, so each of its blocks is one period, and the last is cut after 3 rows
        digit_edges = (9, 10, 11, 99, 100, 101, 9999, 10000, 10001)
        cases = [(ar_every, n) for ar_every in (1, 2, 3, 7)
                 for step in [ar_every * max(1, 4096 // ar_every)]
                 for n in sorted({max(1, ar_every - 1), step - 1, step, step + 1, 2 * step + 1,
                                  *digit_edges})]
        for ar_every, n in cases + [(4100, 2 * 4100 + 3)]:
            argv = ["repeater", "--L", "1", "--alpha", "2", "--spacing-km", "1",
                    "--total-km", str(n), "--ar-every", str(ar_every), "--trace"]
            result = simulate_chains(_chain_config(build_parser().parse_args(argv)))[0]
            period = result.period.tolist()
            assert result.n_stations == n and len(period) == min(ar_every, n)
            assert_chain_totals(result, ar_every)
            traces = {}
            for fmt in ("csv", "json"):
                # the reference renders each station's row on its own
                layout = LAYOUTS[fmt]
                rows = (layout.row([str(i), *period[(i - 1) % len(period)]])
                        for i in range(1, n + 1))
                expected = (layout.head(["station", "amplitude_in", "f_factor", "p_factor"])
                            + layout.row_sep.join(rows) + layout.foot)
                path = tmp_path / f"t.{fmt}"
                assert main(argv + ["--format", fmt]) == 0
                assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
                for got in (capsys.readouterr().out, path.read_text()):
                    # a bare == would have pytest diff two long strings
                    same = got == expected
                    assert same, (ar_every, n, fmt, len(os.path.commonprefix([got, expected])))
                traces[fmt] = expected
            header, rows = parse_csv(traces["csv"])
            payload = json.loads(traces["json"])
            assert payload["columns"] == header
            assert payload["rows"] == rows
            assert [row[0] for row in rows] == [str(i) for i in range(1, n + 1)]
            for i, row in enumerate(rows, start=1):
                assert row[1:] == [format(v, ".17g") for v in period[(i - 1) % len(period)]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("ar_every", [1, 7, 5000])
    def test_trace_renders_each_period_row_once(self, ar_every, fmt, monkeypatch, tmp_path):
        # 20001 stations take five digit counts, and each count's rows come from
        # the one rendering of the period; a row renders through one template,
        # so the count is taken on the rendering of whole rows
        rendered = []
        row = cli._Layout.row

        def counted(self, values):
            rendered.append(values)
            return row(self, values)

        monkeypatch.setattr(cli._Layout, "row", counted)
        assert main(["repeater", "--L", "1", "--alpha", "2", "--total-km", "20001",
                     "--spacing-km", "1", "--ar-every", str(ar_every), "--trace",
                     "--format", fmt, "--out", str(tmp_path / "trace")]) == 0
        assert len(rendered) == ar_every

    @pytest.mark.parametrize("fmt, size", [("csv", 4.7 * 10**6), ("json", 9.5 * 10**6)],
                             ids=["csv", "json"])
    def test_trace_streams(self, fmt, size, tmp_path):
        # the 10^5-row trace (4.7 MB of CSV, 9.5 MB of JSON) goes out in blocks
        # of 4096 rows: the write peaks at about 2.3 MiB; the manifest hashes
        # every block, and the last station is the first with six digits
        path = tmp_path / f"trace.{fmt}"
        tracemalloc.start()
        try:
            code = main(["repeater", "--L", "4", "--alpha", "7", "--spacing-km", "0.01",
                         "--trace", "--format", fmt, "--out", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.stat().st_size > 0.95 * size
        assert peak < 4 * 2**20
        manifest = json.loads((tmp_path / f"trace.{fmt}.manifest.json").read_text())
        assert manifest["output_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        text = path.read_text()
        last = json.loads(text)["rows"][-1][0] if fmt == "json" else parse_csv(text)[1][-1][0]
        assert last == "100000"

    @pytest.mark.parametrize("P", [1, 3, 7, 4100])
    def test_trace_digits_past_six_places(self, P):
        # blocks that start just below 10^k, k = 7..16, and end past it, and the
        # last stations below 2^53, where a leading digit's run (10^15 stations)
        # is far longer than the block; each station against str(i)
        rows = [f"#,{j}" for j in range(P)]
        edges = [(10**k - 4099, 10**k + 4100) for k in range(7, 17)] + [(2**53 - 8200, 2**53)]
        for lo, n in edges:
            got = b"\n".join(cli._trace_blocks(rows, "\n", n, lo)).decode().split("\n")
            want = [f"{i},{(i - 1) % P}" for i in range(lo, n + 1)]
            same = got == want  # a bare == would have pytest diff two long lists
            assert same, (P, lo, next(i for i, (g, w) in enumerate(zip(got, want)) if g != w))

    def test_non_integral_spacing_warns_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["repeater", "--L", "1", "--alpha", "2", "--total-km", "1",
                         "--spacing-km", "0.3"]) == 0
        rounding = [w for w in caught if "not integral" in str(w.message)]
        assert [w.category for w in rounding] == [UserWarning]

    def test_non_integral_sweep_warns_once_per_chain(self, capsys):
        # 1000 km over 0.3 and 0.7 km is not integral, over 0.5 km it is
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", "--L", "4", "--alpha", "7", "--axis", "spacing",
                         "--values", "0.3,0.5,0.7"]) == 0
        rounding = [w for w in caught if "not integral" in str(w.message)]
        assert [str(w.message) for w in rounding] == [
            f"total_km/spacing_km = {r} is not integral; rounding down"
            for r in ("3333.3333333333335", "1428.5714285714287")]
        assert [w.category for w in rounding] == [UserWarning, UserWarning]

    def test_chain_set_objects_do_not_grow_with_its_chains(self, monkeypatch, capsys):
        # a chain set is one RepeaterConfig of columns: a command builds as many
        # RepeaterConfig, CodeSpec and LogicalCoeffs objects for 200 chains as for 2
        built = []
        for cls in (repeater.RepeaterConfig, codes.CodeSpec, codes.LogicalCoeffs):
            def counted(self, post_init=cls.__post_init__):
                built.append(type(self).__name__)
                post_init(self)
            monkeypatch.setattr(cls, "__post_init__", counted)

        def objects(argv):
            built.clear()
            assert main(argv) == 0
            capsys.readouterr()
            return sorted(built)

        sweep = ["sweep", "--L", "4", "--alpha", "7", "--axis", "alpha", "--values"]
        many = ",".join(map(str, np.linspace(3.0, 9.0, 200).tolist()))
        assert objects(sweep + ["3.5,8"]) == objects(sweep + [many])
        table = objects(["tables", "--which", "I"])  # 12 rows of 4 chains
        monkeypatch.setitem(cli.LONG_HAUL_REFERENCE["I"], "rows",
                            cli.LONG_HAUL_REFERENCE["I"]["rows"][:1])
        assert objects(["tables", "--which", "I"]) == table

    def test_sweep(self, capsys):
        code, out = run(
            ["sweep", "--L", "4", "--alpha", "7", "--total-km", "100",
             "--axis", "spacing", "--values", "0.1,0.5,1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "spacing"
        assert [float(r[0]) for r in rows] == [0.1, 0.5, 1.0]

    def test_tables_structure(self, capsys):
        code, out = run(["tables", "--which", "II", "--total-km", "20"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert "F_new" in header
        assert "P_new_dev" in header
        assert len(rows) == 9


class TestOutputsAndManifest:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["weights", "--L", "1", "--alpha", "2",
                "--gamma-min", "0.5", "--gamma-max", "1", "--gamma-steps", "7"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_written_with_checksum(self, tmp_path):
        out = tmp_path / "fid.csv"
        assert main(
            ["fidelity", "--L", "1", "--alpha", "2", "--gamma-steps", "5",
             "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "fid.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "fidelity"
        assert manifest["params"]["alpha"] == 2.0
        assert manifest["params"] == {
            "L": 1, "alpha": 2.0, "format": "csv", "gamma_max": 1.0, "gamma_min": 0.5,
            "gamma_steps": 5, "out": str(out), "subcommand": "fidelity",
        }
        assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert "version" in manifest

    def test_verify_writes_text_and_manifest(self, tmp_path, capsys):
        # verify goes through the one writer: its stdout report, plus a manifest
        out = tmp_path / "verify.txt"
        assert main(["verify", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "verify.txt.manifest.json").read_text())
        assert manifest["params"] == {"format": "text", "out": str(out), "subcommand": "verify"}
        assert manifest["output_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert run(["verify"], capsys) == (0, out.read_text())

    def test_device_gets_no_manifest(self, tmp_path):
        # a link to the null device takes the data, but no file holds the bytes
        # a manifest would hash, so none is written beside the link
        link = tmp_path / "null"
        link.symlink_to(os.devnull)
        assert main(WEIGHTS + ["--out", str(link)]) == 0
        assert list(tmp_path.iterdir()) == [link]

    @pytest.mark.parametrize("argv", DATASETS.values(), ids=DATASETS.keys())
    def test_manifest_params_are_the_parsed_args(self, argv, tmp_path):
        argv = argv + ["--out", str(tmp_path / "d.csv")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        params = vars(build_parser().parse_args(argv))
        del params["func"]
        assert manifest["params"] == params

    @pytest.mark.parametrize("argv", [WEIGHTS, ["sweep", "--L", "1", "--alpha", "2", "--axis",
                                                "alpha", "--values", "2,3.5,4.25"]])
    def test_manifest_text_is_one_sorted_dump(self, argv, tmp_path):
        # the text json.dump wrote token by token, now written whole: two-space indent,
        # sorted keys, one closing newline
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        text = (tmp_path / "d.csv.manifest.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text.startswith('{\n  "created_utc": ') and text.endswith('\n}\n')

    def test_json_format_mirrors_csv(self, tmp_path):
        base = ["weights", "--L", "1", "--alpha", "2",
                "--gamma-min", "0.8", "--gamma-max", "1", "--gamma-steps", "3"]
        csv_path = tmp_path / "w.csv"
        json_path = tmp_path / "w.json"
        main(base + ["--out", str(csv_path)])
        main(base + ["--format", "json", "--out", str(json_path)])
        payload = json.loads(json_path.read_text())
        header, rows = parse_csv(csv_path.read_text())
        assert payload["columns"] == header
        assert payload["rows"][0] == rows[0]

    @pytest.mark.parametrize("argv", DATASETS.values(), ids=DATASETS.keys())
    def test_layouts_match_json_module_and_each_other(self, argv, tmp_path, capsys):
        csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
        assert main(argv + ["--out", str(csv_path)]) == 0
        assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
        assert main(argv + ["--format", "json"]) == 0
        text = json_path.read_text()
        assert capsys.readouterr().out == text
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2) + "\n"
        assert main(argv) == 0
        csv_text = csv_path.read_text()
        assert capsys.readouterr().out == csv_text
        header, rows = parse_csv(csv_text)
        assert csv_text == "\n".join(",".join(r) for r in [header] + rows) + "\n"
        assert payload["columns"] == header
        assert [[str(cell) for cell in row] for row in payload["rows"]] == rows

    @pytest.mark.parametrize("fmt, quote", [("csv", ""), ("json", '"')])
    def test_row_template_spells_and_checks_every_cell(self, fmt, quote):
        layout = replace(LAYOUTS[fmt])
        # the str cells are program literals: bare in CSV, quoted in JSON
        cells = [quote * 2, quote + "#" + quote, "3", quote + "0.25" + quote]
        assert layout.row(["", "#", 3, 0.25]) == (
            layout.row_open + layout.cell_sep.join(cells) + layout.row_close)
        # the first non-finite float is named
        for values, name in [([0.5, "", math.nan, math.inf], "nan"),
                             ([-math.inf, math.nan], "-inf")]:
            with pytest.raises(ArithmeticError, match=f"^non-finite value {name} in output$"):
                layout.row(values)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_render_runs_as_row_does(self, fmt, monkeypatch):
        # tables' "" cells change the cell types between rows; sweep has an int column
        emitted = record_calls(monkeypatch, "catloss.cli._emit")
        for argv in (DATASETS["tables"], DATASETS["sweep"]):
            assert main(argv + ["--out", os.devnull]) == 0
        mixed = [[0.5, "", 3], [0.25, "", 3], [0.5, 1e-300, 0], ["#", 2.5, 1], [0.5, "", 3]]
        for rows in [emitted[0][1], emitted[1][1], mixed, mixed[:1], []]:
            layout = replace(LAYOUTS[fmt])
            assert layout.rows(rows) == layout.row_sep.join(map(layout.row, rows))
        assert len({tuple(map(type, row)) for row in emitted[0][1]}) > 1
        # a non-finite cell inside a run: the first one in row order is named
        rows = [[0.5, "", 3], [0.5, 1.0, 2], [0.25, math.nan, 2], [math.inf, 0.5, 2]]
        with pytest.raises(ArithmeticError, match="^non-finite value nan in output$"):
            replace(LAYOUTS[fmt]).rows(rows)

    def test_full_precision_roundtrip(self, capsys):
        _, out = run(
            ["weights", "--L", "1", "--alpha", "2",
             "--gamma-min", "0.9", "--gamma-max", "0.9", "--gamma-steps", "1"],
            capsys,
        )
        _, rows = parse_csv(out)
        from catloss import CodeSpec, LogicalCoeffs, ChannelParams, thinning_weights
        w = thinning_weights(CodeSpec(1, 2, 2.0), LogicalCoeffs.balanced(), ChannelParams(0.9))
        assert float(rows[0][1]) == w[0]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\ngamma-steps = 1\ngamma-min = 1\ngamma-max = 1\n")
        code, out = run(
            ["weights", "--L", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == 1.0
        # --config=PATH, and --config ahead of the subcommand
        for argv in (["weights", "--L", "1", f"--config={cfg}"],
                     ["--config", str(cfg), "weights", "--L", "1"]):
            assert run(argv, capsys) == (0, out)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=2\ngamma_min=0.5\ngamma_max=0.5\ngamma_steps=1\n")
        code, out = run(
            ["weights", "--L", "1", "--config", str(cfg),
             "--gamma-min", "1", "--gamma-max", "1"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == 1.0

    def test_bare_key_sets_a_switch(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=1\nalpha=2\ntotal-km=3.5\nspacing-km=0.5\nar-every=2\ntrace\n")
        code, out = run(["repeater", "--config", str(cfg)], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "station" and len(rows) == 7
        assert run(DATASETS["repeater-trace"], capsys) == (0, out)

    def test_missing_config_is_error(self, capsys):
        code = main(["weights", "--L", "1", "--alpha", "2", "--config", "/nope.cfg"])
        assert code == 1
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--L", "1", "--alpha", "2", "--config"])  # no path
        assert exc.value.code == 1

    @pytest.mark.parametrize("key, value", [("b", "-1e-3"), ("coeffs", "-0.5+0.1j,1")])
    def test_values_may_start_with_a_minus(self, key, value, tmp_path):
        # a config line is one --key=value token, so it parses as that flag does
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        base = DATASETS["weights"] + ["--out"]
        assert main(base + [str(tmp_path / "file.csv"), "--config", str(cfg)]) == 0
        assert main(base + [str(tmp_path / "flag.csv"), f"--{key}={value}"]) == 0
        assert main(base + [str(tmp_path / "token.csv"), f"--{key}", value]) == 0
        assert main(base + [str(tmp_path / "default.csv")]) == 0
        data = (tmp_path / "file.csv").read_bytes()
        assert data == (tmp_path / "flag.csv").read_bytes()
        assert data == (tmp_path / "token.csv").read_bytes()
        assert data != (tmp_path / "default.csv").read_bytes()

    def test_empty_alphas_line_is_one(self, tmp_path, capsys):
        # an empty list, as on the command line: one line naming the flag and the entry
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphas=\n")
        assert main(["kl-report", "--L", "1", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "error: --alphas entry '' is not a number\n")

    def test_config_naming_a_config_is_one(self, tmp_path, capsys):
        # --config is a flag, but a file cannot name another: one line naming the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=1\n\n# the next file\nconfig=other.cfg\n")
        assert main(["weights", "--alpha", "2", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {cfg} line 4: a config file cannot name another config file\n")

    def test_value_on_a_switch_is_error(self, tmp_path, capsys):
        # `trace=1` is not the bare `trace` line: exit 1 naming the switch, nothing written
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trace=1\n")
        with pytest.raises(SystemExit) as exc:
            main(DATASETS["repeater"] + ["--config", str(cfg), "--out", str(tmp_path / "d")])
        assert exc.value.code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["catloss repeater: error: argument --trace: "
                          "ignored explicit argument '1'"]
        assert list(tmp_path.iterdir()) == [cfg]


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["weights"])  # missing required flags
        assert exc.value.code == 1

    def test_unknown_subcommand_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_invalid_spec_is_one(self, capsys):
        assert main(["weights", "--L", "-1", "--alpha", "2"]) == 1

    def test_loss_count_past_fock_cutoff_is_one(self, capsys):
        # 2L+1 = 81 losses exceed alpha 1's cutoff of 64 photons: one line naming
        # the loss count, the amplitude and the cutoff
        assert main(["kl-report", "--L", "40", "--alphas", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: loss count 81 exceeds the Fock cutoff n_max=64"
                                " at alpha=1.0\n")

    def test_invalid_gamma_grid_is_one(self, tmp_path, capsys):
        # exit 1 and nothing written; an empty grid is not a header-only dataset
        out = str(tmp_path / "data.csv")
        for cmd in ("weights", "fidelity"):
            for grid in (["--gamma-min", "0", "--gamma-max", "1"], ["--gamma-steps", "0"]):
                assert main([cmd, "--L", "1", "--alpha", "2", *grid, "--out", out]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, named", [
        # --a/--b set a qubit input, which a qudit without --coeffs dropped
        (["weights", "--L", "1", "--d", "3", "--alpha", "2", "--a", "0.3", "--b", "0.1"],
         "--coeffs"),
        (["weights", "--L", "1", "--d", "4", "--alpha", "2", "--b=-1"], "--coeffs"),
        # a one-step grid holds gamma-min alone, which dropped gamma-max
        (["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "1", "--gamma-max", "0.7"],
         "gamma-steps 1"),
        (["fidelity", "--L", "1", "--alpha", "2", "--gamma-steps", "1", "--gamma-min", "0.9"],
         "gamma-steps 1"),
        # an empty --coeffs took the default input, (1, 1)/sqrt(2) or the uniform qudit
        (["weights", "--L", "1", "--alpha", "2", "--coeffs", ""], "--coeffs entry ''"),
        (["weights", "--L", "1", "--d", "3", "--alpha", "2", "--coeffs", ""],
         "--coeffs entry ''"),
        # a malformed entry gave complex()'s message, naming neither flag nor entry
        (["weights", "--L", "1", "--alpha", "2", "--coeffs", "1,,2"], "--coeffs entry ''"),
        (["weights", "--L", "1", "--alpha", "2", "--coeffs", " "], "--coeffs entry ' '"),
        (["weights", "--L", "1", "--d", "3", "--alpha", "2", "--coeffs", "1,x,1j"],
         "--coeffs entry 'x'"),
        # so did float()'s, for the real lists
        (["kl-report", "--L", "1", "--alphas", "1,,2"], "error: --alphas entry '' is not a number"),
        (["kl-report", "--L", "1", "--alphas", "x"], "error: --alphas entry 'x' is not a number"),
        (["sweep", "--L", "4", "--alpha", "6", "--axis", "spacing", "--values", "0.1,x"],
         "error: --values entry 'x' is not a number"),
        (["sweep", "--L", "4", "--alpha", "6", "--axis", "spacing", "--values", ""],
         "error: --values entry '' is not a number"),
    ])
    def test_dropped_flag_value_is_one(self, argv, named, tmp_path, capsys):
        code = main(argv + ["--out", str(tmp_path / "data.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert named in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_empty_coeffs_in_config_is_one(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("coeffs=\n")
        code = main(["--config", str(config), "weights", "--L", "1", "--alpha", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --coeffs entry '' is not a complex number\n"

    @pytest.mark.parametrize("argv, gamma, total", [
        (["sweep", "--L", "1", "--alpha", "2", "--total-km", "1", "--axis", "gamma",
          "--values", "0.9,0.5"], "0.9", "1.0"),
        (["sweep", "--L", "1", "--alpha", "2", "--axis", "gamma", "--values", "1e-320"],
         "1e-320", "1000.0"),
    ])
    def test_gamma_spacing_past_total_is_one(self, argv, gamma, total, capsys):
        # named by the swept gamma, not by a spacing_km the user never set
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: gamma {gamma} sets a spacing of ")
        assert captured.err.endswith(f" km, above total_km {total}\n")
        assert "spacing_km" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["repeater", "--L", "4", "--alpha", "7", "--total-km", "inf"],
            ["repeater", "--L", "4", "--alpha", "nan"],
            ["repeater", "--L", "1", "--alpha", "2", "--spacing-km", "nan"],
            ["repeater", "--L", "1", "--alpha", "2", "--attenuation-km", "inf"],
            ["repeater", "--L", "1", "--alpha", "2", "--total-km", "1", "--a", "nan"],
            ["weights", "--L", "1", "--alpha", "nan", "--gamma-steps", "2"],
            ["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "2", "--coeffs", "nan,1"],
            ["fidelity", "--L", "1", "--alpha", "inf", "--gamma-steps", "2"],
            ["tables", "--which", "I", "--total-km", "inf"],
            ["sweep", "--L", "1", "--alpha", "2", "--total-km", "1",
             "--axis", "alpha", "--values", "nan"],
            ["repeater", "--L", "4", "--alpha", "7", "--total-km", "1e300",
             "--spacing-km", "1e-300"],
            ["repeater", "--L", "4", "--alpha", "7", "--total-km", "1e300",
             "--spacing-km", "1e-7"],
            ["sweep", "--L", "1", "--alpha", "2", "--total-km", "1",
             "--axis", "gamma", "--values", "nan"],
            ["sweep", "--L", "1", "--alpha", "2", "--total-km", "1",
             "--axis", "spacing", "--values", "nan"],
        ],
    )
    def test_non_finite_input_is_one(self, argv, capsys):
        # exit 1 with a one-line error, no NaN data and no traceback
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["repeater", "--L", "4", "--alpha", "30", "--total-km", "1"],
            ["sweep", "--L", "4", "--alpha", "7", "--total-km", "1",
             "--axis", "alpha", "--values", "30"],
            ["repeater", "--L", "2", "--alpha", "40", "--total-km", "1"],
            # a damped Gram entry overflows to inf
            ["repeater", "--L", "10", "--alpha", "0.185", "--spacing-km", "0.05",
             "--total-km", "100", "--ar-every", "1"],
            # a damped amplitude of about 1e-4 makes a coherent Gram diagonal sum
            # 0, and the kernel's normalization 0/0
            ["repeater", "--L", "4", "--alpha", "7", "--spacing-km", "5", "--ar-every", "100"],
            ["repeater", "--L", "4", "--alpha", "7", "--spacing-km", "5", "--ar-every", "100",
             "--format", "json"],
            # the first three again, written as JSON
            ["repeater", "--L", "4", "--alpha", "30", "--total-km", "1", "--format", "json"],
            ["sweep", "--L", "4", "--alpha", "7", "--total-km", "1",
             "--axis", "alpha", "--values", "30", "--format", "json"],
            ["repeater", "--L", "2", "--alpha", "40", "--total-km", "1", "--format", "json"],
        ],
    )
    def test_numerical_failure_is_two(self, argv, tmp_path, capsys):
        # a tripped clamp or a NaN result exits 2 with one line and writes nothing;
        # no warning is shown, not even one an earlier test showed at its location
        out = tmp_path / "data.csv"
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert shown == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_names_the_nominal_amplitude(self, fmt, capsys):
        # the two-loss form overflows at the nominal amplitude and at every damped
        # one below it; the batch's first is the nominal 40.0, not the smallest
        code = main(["repeater", "--L", "2", "--alpha", "40", "--total-km", "1",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "numerical failure: overlap of space 0 at amplitude 40.0 is (nan+0j)\n")

    @pytest.mark.parametrize(
        "argv",
        [
            # on the Gram route the first tripped the filter's clamp and the next
            # three overflowed to NaN, each exiting 2
            ["fidelity", "--L", "40", "--alpha", "5", "--gamma-steps", "2"],
            ["fidelity", "--L", "1", "--alpha", "30", "--gamma-steps", "2"],
            ["fidelity", "--L", "1", "--alpha", "30", "--gamma-steps", "2", "--format", "json"],
            ["fidelity", "--L", "2", "--alpha", "30", "--gamma-steps", "2"],
            ["fidelity", "--L", "1", "--alpha", "1e4", "--gamma-steps", "2"],
        ],
    )
    def test_fidelity_exits_zero_where_the_gram_route_failed(self, argv, capsys):
        # the class-sum weights give a finite bound in [0, 1], the minimum of the pair
        code, out = run(argv, capsys)
        assert code == 0
        rows = json.loads(out)["rows"] if "json" in argv else parse_csv(out)[1]
        f_plus, f_minus, f_bound = np.array(rows, dtype=float)[:, 1:].T
        assert np.all(np.isfinite([f_plus, f_minus])) and np.all((f_plus >= 0) & (f_minus >= 0))
        assert np.all((f_plus <= 1) & (f_minus <= 1))
        assert np.array_equal(f_bound, np.minimum(f_plus, f_minus))

    def test_ar_every_past_int64_is_one(self, capsys):
        # numpy held it as an object column, and np.repeat raised a TypeError
        code = main(["repeater", "--L", "1", "--alpha", "2", "--total-km", "1",
                     "--ar-every", "100000000000000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: ar_every must be below 2**63, got 100000000000000000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # the segment transmission underflows
            ["repeater", "--L", "1", "--alpha", "2", "--total-km", "20000",
             "--spacing-km", "20000"],
            ["repeater", "--L", "1", "--alpha", "2", "--attenuation-km", "1e-300"],
            ["sweep", "--L", "4", "--alpha", "7", "--total-km", "40000",
             "--axis", "spacing", "--values", "0.1,20000"],
            # only the transmission over the restoration interval of two segments
            ["repeater", "--L", "1", "--alpha", "2", "--total-km", "30000",
             "--spacing-km", "15000"],
            # only the amplitude after the third segment of a chain that never restores
            ["repeater", "--L", "1", "--alpha", "1", "--total-km", "45591",
             "--spacing-km", "15197", "--ar-every", "4"],
        ],
    )
    def test_underflowed_transmission_is_one(self, argv, tmp_path, capsys):
        # exit 1 with one line naming the chain's inputs, not an internal gamma or alpha
        code = main(argv + ["--out", str(tmp_path / "data.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: transmission underflows to 0")
        assert captured.err.count("\n") == 1
        for name in ("spacing_km", "attenuation_km", "ar_every"):
            assert f"{name}=" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_chain_that_never_restores_needs_no_interval(self, capsys):
        # one segment of 15000 km transmits; its interval of two would underflow
        code, out = run(["repeater", "--L", "1", "--alpha", "2", "--total-km", "15000",
                         "--spacing-km", "15000"], capsys)
        assert code == 0
        assert parse_csv(out)[1] == [["1", "1", "1", "1"]]

    def test_underflowed_one_loss_amplitude_writes_data(self, capsys):
        # the damped amplitude squares to 0, where the one-loss overlap
        # sin(a^2)/sinh(a^2) takes its limit 1
        code, out = run(["weights", "--L", "1", "--alpha", "0.5", "--gamma-min", "5e-324",
                         "--gamma-max", "5e-324", "--gamma-steps", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0])

    @pytest.mark.parametrize("dataset", ["weights", "repeater-trace"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_last_row_writes_nothing(self, dataset, to_file, monkeypatch,
                                                tmp_path, capsys):
        # NaN in the last gamma row / the last period row (the chain's restoring
        # row, last in its one mixture batch): every row is rendered before
        # the first byte goes out
        real_thinning, real_weights = channel.thinning_weights, channel.mixture_weights

        def nan_at_gamma_max(spec, coeffs, params):
            # one call per grid: NaN in the rows of gamma = 1 only
            at_max = np.asarray(params.gamma)[..., None] == 1.0
            return np.where(at_max, math.nan, real_thinning(spec, coeffs, params))

        def nan_in_last_row(spec, coeffs, params):
            w = real_weights(spec, coeffs, params)
            last = np.arange(len(w.ptilde))[:, None] == len(w.ptilde) - 1
            return replace(w, ptilde=np.where(last, math.nan, w.ptilde))

        monkeypatch.setattr("catloss.channel.thinning_weights", nan_at_gamma_max)
        monkeypatch.setattr("catloss.repeater.mixture_weights", nan_in_last_row)
        out = ["--out", str(tmp_path / "data")] if to_file else []
        code = main(DATASETS[dataset] + out)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert list(tmp_path.iterdir()) == []

    def test_damped_period_warns_once(self):
        # one warning for a chain set's batch, located in the library, not in
        # the dataclass-generated __init__ ("<string>")
        env = {**os.environ, "PYTHONPATH": str(Path(catloss.__file__).parents[1])}
        cases = [
            # 13 of the 200 period rows fall below the collinear amplitude; the
            # restoring row at the nominal alpha is the batch's 201st amplitude
            (["repeater", "--L", "4", "--alpha", "7", "--spacing-km", "1", "--ar-every", "200"],
             "at 13 of 201 amplitudes"),
            # every swept value is below it, and no value warns on its own: two
            # chains of two period rows and one restoring row each
            (["sweep", "--L", "1", "--alpha", "2", "--axis", "alpha", "--values", "0.01,0.02"],
             "at 6 of 6 amplitudes"),
            # a small nominal alpha warns in the batch alone, not again for --alpha itself
            (["repeater", "--L", "1", "--alpha", "0.05", "--total-km", "1", "--spacing-km", "0.5"],
             "at 3 of 3 amplitudes"),
            (["sweep", "--L", "1", "--alpha", "0.05", "--total-km", "1", "--axis", "spacing",
              "--values", "0.1,0.5"], "at 6 of 6 amplitudes"),
            # kl-report checks every amplitude once, not one warning per alpha
            (["kl-report", "--L", "1", "--alphas", "0.05,0.06,0.07"], "at 3 of 3 amplitudes"),
        ]
        for argv, count in cases:
            proc = subprocess.run([sys.executable, "-m", "catloss.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0
            lines = [line for line in proc.stderr.splitlines() if "collinear" in line]
            assert len(lines) == 1 and count in lines[0], proc.stderr
            assert "<string>" not in proc.stderr

    def test_closed_stdout_pipe_is_zero(self):
        # `catloss repeater --trace | head`: the reader leaves after 100 bytes
        # of a 10^4-row trace, far more than a pipe buffers
        env = {**os.environ, "PYTHONPATH": str(Path(catloss.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "catloss.cli", "repeater", "--L", "1", "--alpha", "2",
             "--total-km", "100", "--spacing-km", "0.01", "--trace"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head.startswith(b"station,amplitude_in,f_factor,p_factor\n1,")
        assert stderr == b""

    def test_memory_error_is_one(self, monkeypatch, tmp_path, capsys):
        # a chain too long to allocate exits 1 with one line and writes
        # nothing; the failure is simulated, never provoked by allocating
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr("catloss.repeater.simulate_chains", exhausted)
        out = tmp_path / "data.csv"
        code = main(["repeater", "--L", "1", "--alpha", "2", "--total-km", "1",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 745. GiB\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"),
                                     MemoryError("Unable to allocate 745. GiB")])
    def test_failed_stream_removes_the_partial_file(self, exc, tmp_path):
        # the data file is open once the first block is drawn: a failure after
        # that removes it, and no manifest is written
        def blocks():
            yield b"1,2"
            raise exc

        args = argparse.Namespace(format="csv", out=str(tmp_path / "data.csv"),
                                  subcommand="repeater")
        with pytest.raises(type(exc)):
            cli.write_output(["a", "b"], blocks(), args)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_manifest_removes_the_data_file(self, tmp_path, capsys):
        # a directory in the manifest's place: exit 1, no data file is left
        # without its manifest, and the directory is kept
        (tmp_path / "d.csv.manifest.json").mkdir()
        assert main(WEIGHTS + ["--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["d.csv.manifest.json"]

    def test_failed_manifest_write_removes_both_files(self, monkeypatch, tmp_path, capsys):
        def disk_full(obj, **kwargs):
            # the manifest is formed inside its open file: both files exist when it fails
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.manifest.json"]
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dumps", disk_full)
        assert main(WEIGHTS + ["--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_manifest_keeps_a_link(self, tmp_path):
        # removing a link given as --out would remove no data, only the link
        target, link = tmp_path / "target.csv", tmp_path / "d.csv"
        link.symlink_to(target)
        (tmp_path / "d.csv.manifest.json").mkdir()
        assert main(WEIGHTS + ["--out", str(link)]) == 1
        assert link.is_symlink() and target.read_text().startswith("gamma,")

    @pytest.mark.parametrize("exc, code", [(OSError(28, "No space left on device"), 1),
                                           (MemoryError("Unable to allocate"), 1),
                                           (ArithmeticError("overflow"), 2)])
    def test_failed_trace_leaves_nothing(self, exc, code, monkeypatch, tmp_path, capsys):
        # a trace that fails after its first block exits 1 or 2 and leaves no --out file
        blocks = cli._trace_blocks

        def failing(*args):
            yield next(blocks(*args))
            raise exc

        monkeypatch.setattr(cli, "_trace_blocks", failing)
        assert main(["repeater", "--L", "1", "--alpha", "2", "--spacing-km", "0.01",
                     "--trace", "--out", str(tmp_path / "trace.csv")]) == code
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_verify_reads_weights_off_its_mixtures(self, monkeypatch, capsys):
        # one mixture_weights call per logical_mixture and one for the teleport
        # check; the weights-sum checks read the mixtures' own weights
        calls, real = [], channel.mixture_weights
        monkeypatch.setattr("catloss.fock.mixture_weights",
                            lambda *a: calls.append(a) or real(*a))
        assert run(["verify"], capsys)[0] == 0
        assert len(calls) == 4

    def test_verify_builds_words_and_kraus_factors_in_array_passes(self, monkeypatch, capsys):
        # one word call per code and amplitude (30 calls were one word each) and
        # one Kraus-factor pass per exact channel (38 were one loss count each)
        words, factors = [], []
        real_words, real_factors = fock.codeword_fock, fock._kraus_factors
        monkeypatch.setattr("catloss.fock.codeword_fock",
                            lambda *a, **kw: words.append(a) or real_words(*a, **kw))
        monkeypatch.setattr("catloss.fock._kraus_factors",
                            lambda *a: factors.append(a) or real_factors(*a))
        assert run(["verify"], capsys)[0] == 0
        assert len(words) <= 11
        assert len(factors) <= 4

    def test_verify_passes_on_clean_build(self, capsys):
        code, out = run(["verify"], capsys)
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestParserPerSubcommand:
    """``main`` parses a known subcommand with that subcommand's parser alone; what it
    parses and prints must be what the parser of every subcommand parses and prints."""

    @pytest.mark.parametrize("argv", CALLS.values(), ids=CALLS.keys())
    def test_parses_as_the_full_parser(self, argv, monkeypatch):
        full = build_parser().parse_args(argv)

        def unused():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", unused)
        assert vars(cli._parse(argv)) == vars(full)

    @staticmethod
    def full_route(argv):
        """The reference route: the ``--config`` pre-parser on every argv, then the
        parser of every subcommand."""
        config = cli._Parser(prog="catloss", add_help=False, allow_abbrev=False)
        config.add_argument("--config", metavar="PATH")
        known, argv = config.parse_known_args(argv)
        if known.config is not None:
            argv = argv[:1] + cli._config_tokens(known.config) + argv[1:]
        return build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--he"], ["bogus"], ["--", "weights"], ["-h", "weights"],
        *([name, "-h"] for name in SUBCOMMANDS),
        ["weights"],  # required flags missing
        WEIGHTS + ["extra"],
        WEIGHTS + ["--bogus"],
        ["tables", "--which", "IV"],
        ["--config", "{cfg}", "weights"],
        WEIGHTS + ["--", "x"],
        WEIGHTS + ["--he"],  # an abbreviated --help
        ["weights", "--alpha", "-1e-3", "--L", "1"],
        ["verify", "extra"],
        ["weights", "--L", "1", "--config"],  # no path
        ["--config={cfg}", "weights"],
    ])
    def test_prints_as_the_full_parser(self, argv, monkeypatch, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("L=1\nalpha=2\ngamma-steps=3\n")
        argv = [token.format(cfg=cfg) for token in argv]
        monkeypatch.setenv("COLUMNS", "80")

        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        got = outcome()
        monkeypatch.setattr(cli, "_parse", self.full_route)
        assert got == outcome()
        # help, like data, goes to stdout with exit 0; a usage error to stderr with exit 1
        code, out, err = got
        assert (code, bool(out), bool(err)) in {(0, True, False), (1, False, True)}

    @staticmethod
    def added_subparsers(monkeypatch) -> list[str]:
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        return added

    @pytest.mark.parametrize("argv", CALLS.values(), ids=CALLS.keys())
    def test_main_adds_one_subparser(self, argv, monkeypatch, tmp_path):
        # the parsers one call builds, by prog: the subcommand's own, and the --config
        # pre-parser ahead of it when a token names --config
        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(argv + ["--out", str(tmp_path / "d")]) == 0
        assert built == [f"catloss {argv[0]}"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'e'}\n")
        built.clear()
        assert main(argv + ["--config", str(cfg)]) == 0
        assert built == ["catloss", f"catloss {argv[0]}"]
        assert (tmp_path / "e").read_bytes() == (tmp_path / "d").read_bytes()

    def test_full_parser_lists_every_subcommand(self, monkeypatch):
        # what `catloss -h` prints and the benchmark's set-up probe builds
        added = self.added_subparsers(monkeypatch)
        monkeypatch.setenv("COLUMNS", "80")
        text = build_parser().format_help()
        assert added == list(SUBCOMMANDS)
        assert text.startswith("usage: catloss [-h]\n               "
                               "{weights,fidelity,kl-report,repeater,sweep,tables,verify} ...\n")
        for name, (help_line, _, _) in SUBCOMMANDS.items():
            assert f"    {name}" in text and help_line in text

    @pytest.mark.parametrize("name", SUBCOMMAND_FLAGS)
    def test_flag_interface(self, name):
        full = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices[name]
        own = cli._add_flags(cli._Parser(prog=f"catloss {name}"), name)  # what main builds
        for sub in (full, own):
            assert sub.prog == f"catloss {name}"
            actions = [action for action in sub._actions if action.dest != "help"]
            assert [action.option_strings for action in actions] == [
                [flag] for flag in SUBCOMMAND_FLAGS[name].split()]
            for action in actions:
                assert (action.dest, action.default, action.required, action.choices,
                        action.type, action.nargs, action.help) == FLAG_INTERFACE[
                            action.option_strings[0]]

    def test_every_flag_is_taken(self):
        assert list(SUBCOMMAND_FLAGS) == list(SUBCOMMANDS)
        assert {flag for _, _, flags in SUBCOMMANDS.values() for flag in flags} == set(FLAGS)

    def test_runs_the_command_the_module_holds(self, monkeypatch):
        # a wrapper installed as cli.cmd_weights, by a tracer or a test, is what runs
        calls = record_calls(monkeypatch, "catloss.cli.cmd_weights")
        assert main(WEIGHTS) == 0 and len(calls) == 1
        assert build_parser().parse_args(WEIGHTS).func is cli.cmd_weights
