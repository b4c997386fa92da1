"""catloss benchmark: seeded CLI workloads, end-to-end timings, layer trace.

    python3 perfbench/run.py --workload chains --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Run from the root of a checkout that holds ``src/catloss``; nothing needs
building.  Each workload runs in its own fresh interpreter with
single-threaded BLAS: a warm-up pass, then passes of its command list for
``--seconds`` seconds, one ``catloss.cli.main`` call at a time (closed loop,
one caller).  Pass times are reported in units of a calibration block timed
around every command (see ``worker.calibrate``); raw seconds are printed
beside them.  Set-up time is taken as the median over several fresh
interpreters that import ``catloss.cli`` and build its parser.  Every
operation's dataset is checked (see ``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the worker
alternates untraced and traced passes and the object holds the per-layer
metrics.  The exit code is 0 when every operation passed its checks, 1 when
one failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Checker, load_reference
from workloads import DEFAULT_SEED, WORKLOADS, commands

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# Every run, its set-up probes and its checks included, ends within this.
RUN_LIMIT_S = 170.0
# Set-up probes before and after the workload process, so that the median
# samples the machine at both ends of the run.
SETUP_PROBES = (5, 4)
PROBE = (
    "import time, catloss, catloss.cli as cli; cli.build_parser(); "
    "print(repr(time.monotonic())); print(catloss.__file__)"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def setup_times(n: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    catloss.cli and built the parser, once for each of ``n`` interpreters."""
    times = []
    for _ in range(n):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=_env(), cwd=ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - t0),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        ready, module_file = proc.stdout.split("\n")[:2]
        if Path(module_file).resolve().parent != (SRC / "catloss").resolve():
            raise BenchError(f"catloss imported from {module_file}, not from {SRC}")
        times.append(float(ready) - t0)
    return times


def run_worker(workload: str, cmds, seconds: float, trace: bool, seed: int,
               deadline: float) -> dict:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{workload}-seed{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir()
    out_dir = ROOT / ".perfbench_out"
    spec = {
        "root": str(ROOT),
        "commands": cmds,
        "seconds": seconds,
        "trace": trace,
        "workdir": str(workdir),
        "spans_out": str(out_dir / f"spans-{workload}-seed{seed}.json"),
    }
    if trace:
        out_dir.mkdir(exist_ok=True)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if rc != 0:
            raise BenchError(f"{workload}: worker exited with {rc}")
        result = json.loads((workdir / "result.json").read_text())
        result["checker"] = Checker(cmds, load_reference())
        result["outcomes"] = [result["checker"].check(rec) for rec in result["records"]]
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker overran the {RUN_LIMIT_S:.0f} s run limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir)
    return result


def _read_git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(worker_env: dict, seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        **worker_env,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": _read_git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def _in_group(name: str, group: str) -> bool:
    """A group is one function (``codes.gram_matrix``), every command body
    (``cli.cmd``) or a whole module (``fock``)."""
    if group == "cli.cmd":
        return name.startswith("cli.cmd_")
    if "." not in group:
        return name.startswith(group + ".")
    return name == group


def _group_values(layers: list[dict], group: str, stat: str) -> list[float]:
    """Per traced pass, the stat summed over the functions of ``group``."""
    values = []
    for stats in layers:
        picked = [s for name, s in stats.items() if _in_group(name, group)]
        if stat == "unique_ratio":
            calls = sum(s["calls"] for s in picked)
            values.append(sum(s["unique"] for s in picked) / calls if calls else 0.0)
        else:
            values.append(sum(s[stat] for s in picked))
    return values


def _normalized(passes: list[dict], kind: str) -> list[float]:
    """Pass times (``wall`` or ``cpu``) over the calibration time around them."""
    return [p[kind] / p["cal_" + kind] for p in passes]


def layer_metrics(result: dict, names: list[str]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, as medians over the
    traced passes."""
    layers = result["layers"]
    checker, outcomes, records = result["checker"], result["outcomes"], result["records"]
    per_pass: dict[int, int] = {}
    for rec in records:
        per_pass.setdefault(rec["pass"], 0)
        per_pass[rec["pass"]] += checker.identical(rec)
    devs = [dev for _, dev in outcomes if dev is not None]
    special = {
        "cli.datasets_identical": min(per_pass.values()),
        "cli.max_abs_dev": max(devs) if devs else 0.0,
        "trace.overhead": statistics.median(_normalized(result["traced_passes"], "wall"))
        / statistics.median(_normalized(result["passes"], "wall")),
        "trace.failed": statistics.median_low(
            [sum(s["failed"] for s in stats.values()) for stats in layers]),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        group, stat = name.rsplit(".", 1)
        values = _group_values(layers, group, stat)
        out[name] = (statistics.median(values) if stat in ("self_s", "unique_ratio")
                     else statistics.median_low(values))
    return out


def layer_report(result: dict) -> list[str]:
    """Every traced function, heaviest first, then the self time per module."""
    layers = result["layers"]
    names = sorted({n for stats in layers for n in stats})
    rows = []
    for name in names:
        calls = statistics.median_low(_group_values(layers, name, "calls"))
        self_s = statistics.median(_group_values(layers, name, "self_s"))
        unique = statistics.median(_group_values(layers, name, "unique_ratio"))
        failed = statistics.median_low(_group_values(layers, name, "failed"))
        rows.append((self_s, name, calls, unique, failed))
    rows.sort(reverse=True)
    lines = [f"{'function':45s} {'calls':>8s} {'self_s':>10s} {'unique':>7s} {'failed':>6s}"]
    lines += [f"{n:45s} {c:8d} {s:10.5f} {u:7.3f} {f:6d}" for s, n, c, u, f in rows]
    shares = {}
    for module in {n.split(".")[0] for n in names}:
        self_s = _group_values(layers, module, "self_s")
        shares[module] = statistics.median(
            t / p["wall"] for t, p in zip(self_s, result["traced_passes"]))
    lines.append("self time per module, median share of the traced pass:")
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:10s} {100 * share:6.1f} %")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    cmds = commands(workload, seed)
    before, after = (0, 0) if trace else SETUP_PROBES
    setups = setup_times(before, deadline)
    result = run_worker(workload, cmds, seconds, trace, seed, deadline)
    setups += setup_times(after, deadline)
    failures = [(rec, why) for rec, (why, _) in zip(result["records"], result["outcomes"])
                if why is not None]
    lines = []
    for rec, why in failures[:10]:
        lines.append(f"FAILED {workload} pass {rec['pass']}: "
                     f"{' '.join(cmds[rec['op']])[:120]}: {why}")
    passes = result["passes"]
    walls = [p["wall"] for p in passes]
    norms = _normalized(passes, "wall")
    lines.append(f"{workload}: {len(passes)} timed passes; quartiles of pass_s "
                 + " ".join(f"{q:.4f}" for q in _quartiles(walls))
                 + ", of pass_norm " + " ".join(f"{q:.3f}" for q in _quartiles(norms))
                 + f"; calibration {statistics.median(p['cal_wall'] for p in passes):.5f} s"
                 + f"; {len(setups)} set-up probes")
    if trace:
        metric_specs = spec["per_layer"]
        metrics = layer_metrics(result, [m["name"] for m in metric_specs])
        lines += layer_report(result)
    else:
        metric_specs = spec["end_to_end"]
        available = {
            "setup_s": statistics.median(setups),
            "pass_norm": statistics.median(norms),
            "pass_cpu_norm": statistics.median(_normalized(passes, "cpu")),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: available[m["name"]] for m in metric_specs}
    return {
        "correct": not failures,
        "attempted": len(result["records"]),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
        "env": environment(result["env"], seed),
        "lines": lines,
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the cleanup in
    # run_worker stops the workload process and removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "catloss" / "cli.py").is_file():
        print(f"error: no catloss sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not (math.isfinite(seconds) and seconds > 0):
        parser.error("--seconds must be positive")

    if args.workload is not None:
        order = [args.workload]
    else:
        # Alternate the order between seeds so no workload always runs first.
        order = list(WORKLOADS) if args.seed % 2 == 0 else list(reversed(WORKLOADS))
    results = {}
    try:
        for workload in order:
            results[workload] = run_workload(workload, args.seed, seconds, bool(args.trace), spec)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = next(iter(results.values()))["env"]
    print("env " + json.dumps(env, sort_keys=True))
    for workload, res in results.items():
        for line in res["lines"]:
            print(line)
        for name, m in res["metrics"].items():
            print(f"{workload:13s} {name:45s} {m['value']!r} {m['unit']}")
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload is not None:
        summary["metrics"] = results[args.workload]["metrics"]
    else:
        summary["workloads"] = {w: r["metrics"] for w, r in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
