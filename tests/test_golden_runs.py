"""Every shipped config in both modes, run through the CLI, against its pinned outcome in ``golden/runs.json``.

An entry pins the exit status; for a finished run also the iteration count,
``converged``, the final objective and weight fraction (to 1e-9 relative) and
the SHA-256 of both density fields; for a failed run the start of its error
line.  A mismatch prints the observed entry, ready to replace the pinned
one when a change means to alter that run.  The digests depend on the
floating-point libraries (CHANGES.md names the numpy, scipy and OpenBLAS
versions that produced them).
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from rcto.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "runs.json").read_text(encoding="utf-8"))
FIELDS = ("macro_density.csv", "micro_density.csv")
REL_TOL = 1e-9


def observe(config: str, mode: str, out: Path, capsys) -> dict:
    """The outcome of ``rcto run`` on a shipped config in the given mode, as a golden entry."""
    status = main(["run", "--config", str(ROOT / "configs" / f"{config}.yaml"), "--mode", mode, "--out", str(out)])
    if status != 0:
        error = capsys.readouterr().err.strip().splitlines()[-1]
        return {"exit": status, "error": error}
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    entry = {"exit": 0, **{key: summary[key] for key in ("iterations", "converged", "objective", "weight_fraction")}}
    entry.update({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FIELDS})
    return entry


def matches(pinned: dict, observed: dict) -> bool:
    """Same keys; a pinned error is a prefix of the observed line, a float agrees to REL_TOL, the rest exactly."""

    def agrees(key, value):
        if key == "error":
            return observed[key].startswith(value)
        if isinstance(value, float):
            return math.isclose(observed[key], value, rel_tol=REL_TOL, abs_tol=0.0)
        return observed[key] == value

    return pinned.keys() == observed.keys() and all(agrees(key, value) for key, value in pinned.items())


@pytest.mark.slow
@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_shipped_run_matches_its_golden_entry(run, tmp_path, capsys):
    config, mode = run.split("/")
    observed = observe(config, mode, tmp_path / "bundle", capsys)
    assert matches(GOLDEN[run], observed), f"{run} observed: {json.dumps(observed, sort_keys=True)}"
