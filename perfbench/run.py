"""rcto benchmark: robust 2D run, deterministic 3D run and Monte Carlo verify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rcto_2d --seed 1 --seconds 30 --trace 0

Every measurement comes from a fresh process (``perfbench/child.py``) that
imports rcto from ``src/`` with the BLAS/OpenMP thread count pinned before
numpy loads.  ``--trace 0`` times the real CLI path untraced and prints the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and once
traced and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

# One BLAS/OpenMP thread: SuperLU and the einsum kernels are single-threaded
# anyway, the oracle's small batched solves ran faster on one thread than on
# two on a 2-core machine, and one thread cannot oversubscribe a shared one.
THREADS = 1
SETUP_REPEATS = 5
DEADLINE_S = 170.0

WORKLOADS = {
    # Headline robust mode (n = 5): macro assembly, 1 + 3n backsolves per
    # factorization and robust sensitivities dominate.  The cap reaches past
    # iteration 12, where this commit fails (see README.md).
    "rcto_2d": {
        "config": "configs/cantilever_2d.yaml",
        "set": {"optimizer": {"max_iterations": 14}},
        "args": [],
    },
    # 3D periodic cell factorization dominates; one backsolve per macro
    # factorization, no perturbation layers.
    "dcto_3d": {
        "config": "configs/prism_3d.yaml",
        "set": {"optimizer": {"max_iterations": 2}},
        "args": ["--mode", "dcto"],
    },
    # Dense batched Monte Carlo oracle on the seed design; sparse FE idle.
    "verify_small": {
        "config": "configs/cantilever_small.yaml",
        "set": {"mcs": {"n_interval": 16, "n_random": 20}},
        "args": [],
        "verify": True,
    },
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "uncertainty.backsolves_per_factor":
        return "ratio"
    return "count"


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> tuple[str, int]:
    """Digest and line count of src/rcto, which identify the code measured."""
    h = hashlib.sha256()
    lines = 0
    pkg = os.path.join(SRC, "rcto")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def merge(doc: dict, changes: dict) -> None:
    for key, value in changes.items():
        if isinstance(value, dict):
            merge(doc.setdefault(key, {}), value)
        else:
            doc[key] = value


def write_config(workload: dict, path: str) -> None:
    with open(os.path.join(ROOT, workload["config"]), encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    merge(doc, workload["set"])
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


class Bench:
    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "config.yaml")
        write_config(self.workload, self.config)
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, label: str, task: str, trace: bool = False, reevaluate: bool = False) -> dict:
        """Start one fresh process, wait for it, and return its result."""
        folder = os.path.join(self.work, label)
        os.makedirs(folder)
        bundle = os.path.join(folder, "bundle")
        argv = ["verify"] if self.workload.get("verify") else ["run", "--out", bundle]
        argv += ["--config", self.config, "--seed", str(self.seed)] + self.workload["args"]
        spec = {
            "task": task, "trace": trace, "reevaluate": reevaluate, "src": SRC,
            "config": self.config, "seed": self.seed, "argv": argv, "bundle": bundle,
            "run_id": f"{self.name}-{self.seed}-{label}",
            "result": os.path.join(folder, "result.json"),
            "spans": os.path.join(folder, "spans.jsonl"),
        }
        spec_path = os.path.join(folder, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        stdout = os.path.join(folder, "stdout.txt")
        stderr = os.path.join(folder, "stderr.txt")
        started = time.monotonic()
        with open(stdout, "w") as out, open(stderr, "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, CHILD, spec_path], cwd=ROOT, env=self.env,
                    stdout=out, stderr=err, timeout=max(1.0, self.deadline - started),
                )
                status = proc.returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        result = {"label": label, "status": status, "wall_s": time.monotonic() - started,
                  "bundle": bundle, "stdout": stdout, "stderr": stderr}
        if status == 0 and os.path.exists(spec["result"]):
            with open(spec["result"], encoding="utf-8") as fh:
                result.update(json.load(fh))
        return result


def last_line(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    return lines[-1] if lines else ""


def close(value: float, reference: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - reference) <= rtol * abs(reference)


def check_run(bench: Bench, res: dict, refs: dict) -> tuple[list[str], str | None]:
    """Output checks of one workload process: (problems, output digest)."""
    if "rc" not in res:
        return [f"{res['label']}: no result (status {res['status']}): {last_line(res['stderr'])}"], None
    problems = []
    if not os.path.abspath(res["rcto_file"]).startswith(os.path.join(SRC, "rcto") + os.sep):
        problems.append(f"rcto imported from {res['rcto_file']}, not from {SRC}")
    if res["rc"] != 0:
        # a failing run must fail the same way every time
        with open(res["stderr"], "rb") as fh:
            return problems, "stderr:" + hashlib.sha256(fh.read()).hexdigest()
    ref = refs.get(bench.name, {})
    if bench.workload.get("verify"):
        v = res["verify"]
        n_interval = bench.workload["set"]["mcs"]["n_interval"]
        n_random = bench.workload["set"]["mcs"]["n_random"]
        if v["ihpa_fea_calls"] != ref["ihpa_fea_calls"]:
            problems.append(f"IHPA FEA calls {v['ihpa_fea_calls']} != 1 + 3n = {ref['ihpa_fea_calls']}")
        expected = (ref["corners"] + n_interval) * n_random
        if v["mcs_fea_calls"] != expected:
            problems.append(f"MCS samples {v['mcs_fea_calls']} != {expected}")
        for key, value, want in zip(ref["stat_names"], v["ihpa"], ref["ihpa"]):
            if not close(value, want, ref["ihpa_rtol"]):
                problems.append(f"IHPA {key} {value!r} differs from reference {want!r}")
        for key, value, want, tol in zip(ref["stat_names"], v["mcs"], ref["mcs"], ref["mcs_rtol"]):
            if not close(value, want, tol):
                problems.append(f"MCS {key} {value!r} outside {tol:.0%} of reference {want!r}")
        return problems, "stdout:" + sha256_file(res["stdout"])
    history = os.path.join(res["bundle"], "history.csv")
    if "history" in ref:
        with open(history, encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh][1:]
        want_rows = [line.split(",") for line in ref["history"]]
        if len(rows) != len(want_rows):
            problems.append(f"history has {len(rows)} rows, reference {len(want_rows)}")
        for row, want in zip(rows, want_rows):
            if row[0] != want[0] or not all(
                close(float(a), float(b), ref["history_rtol"]) for a, b in zip(row[1:], want[1:])
            ):
                problems.append(f"history row {row} differs from reference {want}")
    return problems, "history:" + sha256_file(history)


def run_counts(res: dict) -> dict:
    counts = {k: v for k, v in res.get("layers", {}).items() if layer_unit(k) == "count"}
    if "iterations" in res:
        counts["beso.iterations"] = res["iterations"]
    if "verify" in res:
        counts["uncertainty.samples"] = res["verify"]["mcs_fea_calls"]
    return counts


def tripwire(bench: Bench, results: list[dict], digests: list[str], src_digest: str) -> list[str]:
    """Counts and output digests must repeat exactly for the same code, workload and seed."""
    problems = []
    state_path = os.path.join(WORK, "state.json")
    state = {}
    if os.path.exists(state_path):
        with open(state_path, encoding="utf-8") as fh:
            state = json.load(fh)
    code = state.setdefault(src_digest, {})
    counts = code.setdefault(f"{bench.name}/counts", {})
    outputs = code.setdefault(f"{bench.name}/seed{bench.seed}", [])
    for res in results:
        for key, value in run_counts(res).items():
            if key in counts and counts[key] != value:
                problems.append(f"count {key} = {value} in {res['label']}, earlier {counts[key]}")
            counts.setdefault(key, value)
    for digest in digests:
        if outputs and digest != outputs[0]:
            problems.append(f"output {digest[:40]} differs from earlier {outputs[0][:40]}")
        if not outputs:
            outputs.append(digest)
    tmp = state_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, state_path)
    return problems


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    missing = [p for p in ("src/rcto/cli.py", WORKLOADS[args.workload]["config"])
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not an rcto checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    bench = Bench(args.workload, args.seed, start + DEADLINE_S)
    src_digest, src_lines = source_digest()

    setups, runs = [], []
    if args.trace:
        runs.append(bench.child("untraced", "run", reevaluate=True))
        runs.append(bench.child("traced", "run", trace=True))
    else:
        setups = [bench.child(f"setup{i}", "setup") for i in range(SETUP_REPEATS)]
        measure_start = time.monotonic()
        while True:
            res = bench.child(f"rep{len(runs)}", "run")
            runs.append(res)
            elapsed = time.monotonic() - measure_start
            if "rc" not in res or elapsed + res["wall_s"] > args.seconds:
                break

    problems, digests, failed = [], [], 0
    for res in runs:
        found, digest = check_run(bench, res, refs)
        problems += found
        failed += bool(found) or res.get("rc") != 0
        if digest:
            digests.append(digest)
    if len(set(digests)) > 1:
        problems.append(f"outputs differ between repeats: {sorted(set(digests))}")
    problems += tripwire(bench, [r for r in runs if "rc" in r], digests, src_digest)
    if problems:
        failed = len(runs)
    untraced = runs[:1] if args.trace else runs
    measured = [r for r in untraced if r.get("phase_s") and r.get("work")]
    if not measured or (args.trace and "layers" not in runs[1]):
        for line in problems:
            print(f"perfbench: {line}", file=sys.stderr)
        print("perfbench: no run produced a measurement", file=sys.stderr)
        return 1

    base = runs[0]
    provenance = {
        "python": platform.python_version(), **base.get("provenance", {}),
        "nproc": os.cpu_count(), "blas_threads": THREADS, "git_commit": git_commit(),
        "src_sha256": src_digest, "src_rcto_lines": src_lines,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }
    verify = base.get("verify")
    report = {
        "provenance": provenance,
        "runs": [{k: r.get(k) for k in ("label", "status", "rc", "wall_s", "cli_s", "setup_s",
                                        "phase_s", "work", "peak_rss_mb")} for r in runs + setups],
        "errors": [last_line(r["stderr"]) for r in runs if r.get("rc") != 0],
        "error_rate": failed / len(runs),
        "ihpa_rel_err": verify["ihpa_rel_err"] if verify else None,
        "bundle_reeval_rel_err": base.get("bundle_reeval_rel_err"),
        "problems": problems,
    }
    # work over time pooled across runs: the machine's speed switches between
    # fast and slow phases, and a mean moves less with the mix than a median
    work = sum(r["work"] for r in measured)
    phase_s = sum(r["phase_s"] for r in measured)
    rate = work / phase_s
    rate_name, rate_unit = ("samples_per_s", "samples/s") if verify else ("iters_per_s", "iter/s")
    report[rate_name] = rate
    report["samples"] = {rate_name: len(measured)}
    if args.trace:
        traced = runs[1]
        values = dict(traced.get("layers", {}))
        values["trace.overhead_s"] = traced.get("cli_s", math.nan) - base.get("cli_s", math.nan)
        report["layers"] = values
    else:
        setup_s = [r["setup_s"] for r in setups + runs if "setup_s" in r]
        rss = [r["peak_rss_mb"] for r in runs if "peak_rss_mb" in r]
        values = {"setup_s": median(setup_s), "work_per_s": rate, "peak_rss_mb": median(rss)}
        report["samples"].update(setup_s=len(setup_s), peak_rss_mb=len(rss))
    with open(MANIFEST, encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  {rate_name}: {rate:.6g} {rate_unit} ({work} {'samples' if verify else 'iterations'} "
          f"in {phase_s:.6g} s of {'mcs_evaluate' if verify else 'beso.run'} over {len(measured)} runs)")
    print(f"  error_rate: {report['error_rate']:.6g} ratio ({failed} of {len(runs)} runs failed)")
    if verify:
        print(f"  ihpa_rel_err: {verify['ihpa_rel_err']:.6g} ratio")
    if report["bundle_reeval_rel_err"] is not None:
        print(f"  bundle_reeval_rel_err: {report['bundle_reeval_rel_err']:.6g} ratio (reported, not gated)")
    for line in report["errors"]:
        print(f"  run error: {line}")
    for line in problems:
        print(f"  check failed: {line}")
    for name, value in sorted(values.items()):
        unit = layer_unit(name) if args.trace else metrics[name]["unit"]
        print(f"  {name}: {value:.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
