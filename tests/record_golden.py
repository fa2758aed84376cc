"""Record the SHA-256 of every output of ``run`` and ``sweep`` into golden.json.

    PYTHONPATH=src python3 tests/record_golden.py

Each ``run`` is on a shipped scenario at n = 200 / 400 / 800, once with
the oracle at the file's seed and once with ``--no-oracle``, always with
``--plot-data``: every file it writes and its stdout are hashed.  Each
sweep of ``baseline.yaml`` over k0, eps and tau contributes ``sweep.csv``
and its stdout.  ``tests/test_golden.py`` recomputes the same hashes and
compares them with the file.  Before it overwrites the file, the script
prints to stderr each key whose hash differs from the file's, and their
count.  Regenerating the file is a change of test data: say which hashes
moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from akhabit import cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SCENARIOS = ("baseline", "low_curvature")
GRIDS = (200, 400, 800)
SWEEPS = {
    # straddles the capital threshold k0* ~ 0.1716 of baseline.yaml
    "k0": [0.05, 0.1, 0.1716, 0.2, 0.5, 1.0, 10.0, 40.0],
    "eps": [i / 8 for i in range(1, 9)],
    # tau = 10 exceeds the horizon 8: an error row
    "tau": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _captured(call, *args, **kwargs) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = call(*args, **kwargs)
    return code, buf.getvalue()


def golden_hashes(work: Path) -> dict:
    """Output name -> SHA-256, from fresh runs under the directory ``work``."""
    hashes = {}
    for name in SCENARIOS:
        data = yaml.safe_load((REPO / "scenarios" / f"{name}.yaml").read_text())
        for n in GRIDS:
            data["numerics"]["n"] = n
            path = work / f"{name}_n{n}.yaml"
            path.write_text(yaml.safe_dump(data))
            for oracle in (True, False):
                key = f"run/{name}/n{n}/{'oracle' if oracle else 'no-oracle'}"
                out = work / key
                code, stdout = _captured(cli.run, path, out, plot_data=True, no_oracle=not oracle)
                hashes[f"{key}/stdout"] = _sha(f"exit {code}\n{stdout}".encode())
                for file in sorted(out.iterdir()):
                    hashes[f"{key}/{file.name}"] = _sha(file.read_bytes())
    for param, values in SWEEPS.items():
        key = f"sweep/{param}"
        out = work / key
        code, stdout = _captured(cli.sweep, REPO / "scenarios" / "baseline.yaml", param, values, out)
        hashes[f"{key}/stdout"] = _sha(f"exit {code}\n{stdout}".encode())
        hashes[f"{key}/sweep.csv"] = _sha((out / "sweep.csv").read_bytes())
    return hashes


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_hashes(Path(tmp))
    old = json.loads(GOLDEN.read_text())["hashes"] if GOLDEN.exists() else {}
    moved = sorted(key for key in old.keys() | hashes.keys() if old.get(key) != hashes.get(key))
    for key in moved:
        print(f"moved: {key}", file=sys.stderr)
    print(f"{len(moved)} of {len(hashes)} hashes moved", file=sys.stderr)
    doc = {
        "recorded_on": {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()),
        },
        "hashes": hashes,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(hashes)} hashes -> {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
