"""One workload in one fresh interpreter: a warm-up pass, then timed passes.

Run by ``run.py`` as ``python worker.py SPEC.json``; never imported by it.
The spec names the checkout, the commands of one pass, the measuring time,
whether to trace, and the work directory.  Each pass runs every command
once through ``catloss.cli.main`` with ``--out`` into a fresh temporary
directory, closed loop: the next command starts when the previous returns.
After each pass the written data are hashed; the first copy of each distinct
dataset is kept for ``run.py`` to check, repeats are deleted.  The results
go to ``result.json`` in the work directory.

Before every command and after the last one the worker times a fixed
calibration block, so that each pass time can also be expressed in units of
the machine's speed at that moment (see ``calibrate``).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import output_format

# Fewer timed passes than this only when a pass is so slow that the run
# would otherwise overrun its time limit.
MIN_PASSES = 3


# About 40 ms of calibration work on a 2-core Xeon VM.
CAL_ITERATIONS = 3000
_CAL_ARRAY = np.arange(8.0)


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed block of interpreter work on scalars,
    complex numbers, float formatting and small numpy arrays, the mix the
    library itself runs.  On a shared machine whose speed drifts by tens of
    percent from minute to minute, a pass time divided by the calibration
    time taken around it varies far less than the pass time itself."""
    t0, c0 = time.perf_counter(), time.process_time()
    x = 0.0
    for i in range(CAL_ITERATIONS):
        x += float(np.sum(np.exp(_CAL_ARRAY * (1e-3 * i))))
        format(x, ".17g")
        [complex(k, 1.0) * 2.0 for k in range(20)]
    return time.perf_counter() - t0, time.process_time() - c0


def _peak_rss_mib() -> float:
    """Peak resident memory of this process image.  ``ru_maxrss`` would also
    count the parent's peak, which Linux carries across fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run_op(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Exit code of one command, or the exception it raised out of main."""
    try:
        return main(argv), None
    except Exception as exc:  # a raised exception is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


class Runner:
    def __init__(self, spec: dict, cli):
        self.commands = spec["commands"]
        self.formats = [output_format(argv) for argv in self.commands]
        self.workdir = Path(spec["workdir"])
        self.keep = self.workdir / "keep"
        self.keep.mkdir()
        self.cli = cli
        self.records: list[dict] = []
        self._seen: dict[tuple[int, str], str] = {}

    def run_pass(self, index: int) -> dict[str, float]:
        """Run the command list once.  Returns the wall and CPU seconds spent
        in the commands and the mean wall and CPU seconds of the calibration
        blocks run before each command and after the last."""
        pass_dir = Path(tempfile.mkdtemp(prefix=f"pass{index:03d}-", dir=self.workdir))
        outs = [pass_dir / f"op{i:02d}.{fmt}" for i, fmt in enumerate(self.formats)]
        results, cals = [], []
        wall = cpu = 0.0
        main = self.cli.main
        for argv, out in zip(self.commands, outs):
            cals.append(calibrate())
            t0, c0 = time.perf_counter(), time.process_time()
            results.append(_run_op(main, argv + ["--out", str(out)]))
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
        cals.append(calibrate())
        for op, (out, (rc, error)) in enumerate(zip(outs, results)):
            self.records.append(self._record(index, op, out, rc, error))
        shutil.rmtree(pass_dir)
        return {
            "wall": wall,
            "cpu": cpu,
            "cal_wall": sum(c[0] for c in cals) / len(cals),
            "cal_cpu": sum(c[1] for c in cals) / len(cals),
        }

    def _record(self, index, op, out: Path, rc, error) -> dict:
        rec = {"pass": index, "op": op, "rc": rc, "error": error,
               "sha256": None, "manifest_sha256": None, "data": None}
        if out.exists():
            sha = _sha256(out)
            rec["sha256"] = sha
            kept = self._seen.get((op, sha))
            if kept is None:
                kept = str(self.keep / f"op{op:02d}-pass{index:03d}")
                shutil.move(str(out), kept)
                self._seen[(op, sha)] = kept
            rec["data"] = kept
        manifest = Path(str(out) + ".manifest.json")
        if manifest.exists():
            try:
                rec["manifest_sha256"] = json.loads(manifest.read_text()).get("output_sha256")
            except (ValueError, AttributeError):
                rec["manifest_sha256"] = "unreadable"
        return rec


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    import catloss
    import catloss.cli as cli

    if Path(catloss.__file__).resolve().parent != (src / "catloss").resolve():
        print(f"catloss imported from {catloss.__file__}, not from {src}", file=sys.stderr)
        return 2
    runner = Runner(spec, cli)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    seconds = float(spec["seconds"])
    runner.run_pass(0)  # warm-up, not timed
    passes, traced_passes, layer_stats = [], [], []
    spans = None
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(passes) + len(traced_passes) >= MIN_PASSES or elapsed >= 4 * seconds
        if elapsed >= seconds and enough and (tracer is None or traced_passes):
            break
        index += 1
        # The traced run alternates untraced and traced passes, so that both
        # see the same load and their ratio is the tracing overhead.
        if tracer is not None and index % 2 == 0:
            tracer.reset()
            tracer.install()
            try:
                traced_passes.append(runner.run_pass(index))
            finally:
                tracer.uninstall()
            layer_stats.append(tracer.stats())
            spans = tracer.spans()
        else:
            passes.append(runner.run_pass(index))

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    result = {
        "passes": passes,
        "traced_passes": traced_passes,
        "layers": layer_stats,
        "peak_rss_mb": _peak_rss_mib(),
        "records": runner.records,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if spans is not None:
        Path(spec["spans_out"]).write_text(json.dumps(spans))
    tmp = runner.workdir / "result.json.tmp"
    tmp.write_text(json.dumps(result))
    tmp.replace(runner.workdir / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
