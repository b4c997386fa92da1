"""Check that two source trees of catloss write the same bytes.

    python tools/same_bytes.py OLD_SRC NEW_SRC

runs every argv below as ``python -m catloss.cli`` with PYTHONPATH set to each
tree, one process per argv, tree and arm, in an empty directory.  The stdout
arm compares the stdout sha256, the exit code and stderr, with
warning-location lines (``*.py:N:``) dropped from stderr.  The ``--out`` arm
runs the argv again with ``--out data`` appended and also compares the sha256
of ``data``, its manifest without ``created_utc`` and the names of the files
left in the directory.  ``verify``'s report is compared by check name, ok/FAIL
status and tolerance, with its manifest's ``output_sha256`` dropped, since its
values are roundoff residuals of the oracles; a moved residual is printed as
a note, not a mismatch.  It prints each mismatch and exits 1 if there is any;
a CSV or JSON dataset whose bytes differ is printed with its largest deviation
from the old tree's, scaled as the benchmark's reference check scales it
(``perfbench/checks.max_deviation``).
The argvs: the benchmark workloads at seeds 0, 1 and 7, ``tables`` in CSV and
JSON, 10^5-station traces restored every 3, 4097 and 50000 stations and a
1,234,560-station trace, each in CSV and JSON, ``kl-report`` at L 0-3 in both
bases for alphas 0.5 to 9 (every loss count of the lowering ladder), the
README's usage and reproduction-map commands (their own ``--out`` dropped) and
the argv literals of ``tests/test_cli.py::TestExitCodes``.
"""

import ast
import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import _VERIFY_LINE, max_deviation, parse_table  # noqa: E402
from workloads import WORKLOADS, commands, output_format  # noqa: E402


def _readme_argvs():
    text = (ROOT / "README.md").read_text()
    lines = re.findall(r"^catloss (.*)$", text, re.M) + re.findall(r"`catloss ([^`]*)`", text)
    for line in lines:
        argv = shlex.split(line, comments=True)
        if "..." not in argv:
            if "--out" in argv:
                del argv[argv.index("--out"):argv.index("--out") + 2]
            yield argv


def _exit_code_argvs():
    """The all-literal argvs given to ``main``/``run`` or parametrized first as ``argv``."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TestExitCodes")
    for call in (n for n in ast.walk(cls) if isinstance(n, ast.Call) and n.args):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name in ("main", "run"):
            found = call.args[:1]
        elif name == "parametrize" and re.match(r"argv\b", getattr(call.args[0], "value", "")):
            found = [e.elts[0] if isinstance(e, ast.Tuple) else e for e in call.args[1].elts]
        else:
            continue
        for node in found:
            if isinstance(node, ast.List) and all(isinstance(e, ast.Constant) for e in node.elts):
                yield ast.literal_eval(node)


def argvs():
    found = [argv for seed in (0, 1, 7) for name in WORKLOADS for argv in commands(name, seed)]
    found += [["tables", "--which", w, "--format", f] for w in ("I", "II", "III")
              for f in ("csv", "json")]
    chains = [["--spacing-km", "0.01", "--ar-every", str(n)] for n in (3, 4097, 50000)]
    chains.append(["--spacing-km", "0.001", "--total-km", "1234.56"])  # seven digits
    found += [["repeater", "--L", "1", "--alpha", "2", "--trace", *chain, "--format", f]
              for f in ("csv", "json") for chain in chains]
    found += [["kl-report", "--L", str(L), "--alphas", "0.5,1,2,3.5,5,7,9", "--basis", b]
              for L in range(4) for b in ("Z", "X")]
    found += [*_readme_argvs(), *_exit_code_argvs()]
    return list(dict.fromkeys(map(tuple, found)))  # distinct, in order


def _verify_report(text):
    """The report's lines with each residual cut out, and the residuals by check name."""
    lines, residuals = [], {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            line, residuals[m[2]] = f"{m[1]} {m[2]} (tol {m[4]})", m[3]
        lines.append(line)
    return lines, residuals


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def outcome(src, argv, tmp):
    """What ``argv`` leaves behind in an empty directory made in ``tmp``, and
    ``verify``'s residuals by check name ({} for other commands); stdout goes to
    a file beside it, so a long trace is hashed without being held in memory."""
    cwd, stdout = Path(tmp, "cwd"), Path(tmp, "stdout")
    cwd.mkdir()
    with open(stdout, "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "catloss.cli", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(Path(src).resolve())},
                              stdin=subprocess.DEVNULL, stdout=out,
                              stderr=subprocess.PIPE, timeout=600)
    err = [ln for ln in proc.stderr.decode().splitlines()
           if not re.search(r"\.py:\d+:", ln)]
    files = sorted(path.name for path in cwd.iterdir())
    data = cwd / "data" if (cwd / "data").is_file() else None
    dropped = ('"created_utc"', '"output_sha256"') if argv[0] == "verify" else ('"created_utc"',)
    manifest = cwd / "data.manifest.json"
    manifest = ([ln for ln in manifest.read_text().splitlines()
                 if not any(key in ln for key in dropped)] if manifest.is_file() else None)
    if argv[0] != "verify":
        data = data and _sha256(data)
        return (_sha256(stdout), proc.returncode, err, files, data, manifest), {}
    out, residuals = _verify_report(stdout.read_text())
    if data:
        data, residuals = _verify_report(data.read_text())
    return (out, proc.returncode, err, files, data, manifest), residuals


def deviation(argv, old_tmp, new_tmp):
    """The largest scaled deviation of the new dataset from the old one (the
    ``--out`` file, else stdout): inf where their shapes differ (one run wrote
    nothing), None where neither run wrote a table or either does not parse as
    a CSV or JSON table."""
    if argv[0] == "verify":
        return None
    tables = []
    for tmp in (new_tmp, old_tmp):
        path = Path(tmp, "cwd", "data")
        path = path if path.is_file() else Path(tmp, "stdout")
        text = path.read_text()
        try:  # a failed run writes nothing, an empty table in either format
            tables.append(parse_table(text, output_format(argv)) if text else [])
        except (ValueError, KeyError):  # DatasetError too
            return None
    return max_deviation(*tables) if any(tables) else None


def main(old_src, new_src):
    todo, bad = argvs(), 0
    for argv in todo:
        for arm in (argv, [*argv, "--out", "data"]):
            with (tempfile.TemporaryDirectory() as old_tmp,
                  tempfile.TemporaryDirectory() as new_tmp):
                (old, old_res), (new, new_res) = (outcome(old_src, arm, old_tmp),
                                                  outcome(new_src, arm, new_tmp))
                dev = deviation(arm, old_tmp, new_tmp) if old != new else None
            if old != new:
                bad += 1
                print(f"MISMATCH {shlex.join(arm)}\n  old: {old}\n  new: {new}", flush=True)
                if dev is not None:
                    print(f"  largest deviation: {dev:.3g}", flush=True)
            for name in sorted(old_res.keys() & new_res.keys()):
                if old_res[name] != new_res[name]:
                    print(f"note: {shlex.join(arm)}: {name} moved from {old_res[name]} to "
                          f"{new_res[name]}", flush=True)
    print(f"{2 * len(todo) - bad} of {2 * len(todo)} runs ({len(todo)} argvs, each to stdout "
          f"and to --out) byte-identical, verify by name, status and tolerance")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
