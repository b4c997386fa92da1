"""Record the reference datasets of every workload at the default seed.

    python3 perfbench/record_reference.py

writes ``perfbench/reference.json.xz``: for every command, the table it
writes (keyed by its argv without ``--format``) and the sha256 of the bytes
(keyed by its full argv).  The committed file was recorded from the commit
that added the benchmark, before any optimization; re-recording it from a
later commit would let that commit's numerical changes pass unseen.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from checks import REFERENCE_PATH, parse_table  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, commands, output_format, table_key  # noqa: E402


def main() -> int:
    from catloss import cli

    tables, shas = {}, {}
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT))
    try:
        for workload in WORKLOADS:
            for argv in commands(workload, DEFAULT_SEED):
                out = tmp / "data"
                rc = cli.main(argv + ["--out", str(out)])
                if rc != 0:
                    print(f"{' '.join(argv)} exited {rc}", file=sys.stderr)
                    return 1
                data = out.read_bytes()
                shas[" ".join(argv)] = hashlib.sha256(data).hexdigest()
                tables[table_key(argv)] = parse_table(data.decode(), output_format(argv))
    finally:
        shutil.rmtree(tmp)
    payload = {"seed": DEFAULT_SEED, "tables": tables, "sha256": shas}
    with lzma.open(REFERENCE_PATH, "wt", preset=9) as fh:
        json.dump(payload, fh, separators=(",", ":"))
    print(f"wrote {REFERENCE_PATH.name}: {len(tables)} tables, {len(shas)} datasets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
