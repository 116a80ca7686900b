"""One fresh process of the rcto benchmark: set up, or run one CLI path.

    python3 perfbench/child.py SPEC.json

``run.py`` writes SPEC.json and starts this file with the BLAS/OpenMP
thread variables already set, so they hold before numpy is imported.  The
result is written as JSON to ``spec["result"]``.

* ``"task": "setup"`` imports rcto, parses the config and builds the
  problem, the work ``setup_s`` measures.
* ``"task": "run"`` calls ``rcto.cli.main(spec["argv"])``.  Untraced, the
  only additions are clock reads around ``beso.run``, ``io.verify`` and
  ``mcs_evaluate`` and a bare call counter on ``beso.concurrent_update``
  that reads no clock; none records a span.  With ``"trace": true`` every
  public layer function is wrapped by ``tracer.Tracer`` first.
"""

import time

T0 = time.perf_counter()  # before rcto, numpy and scipy are imported

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _history_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def setup(spec: dict) -> dict:
    import rcto.cli

    cfg = rcto.cli.parse_config(spec["config"])
    cfg.seed = spec["seed"]
    rcto.cli.build_problem(cfg)
    return {"setup_s": time.perf_counter() - T0}


def run(spec: dict) -> dict:
    import rcto.cli
    from rcto import beso, io

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    marks: dict = {}
    updates = [0]

    def phase(fn, key):
        def timed(*args, **kwargs):
            marks.setdefault("setup_end", time.perf_counter())
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                marks[key] = time.perf_counter() - start
            marks[key + "_result"] = result
            return result

        return timed

    update = beso.concurrent_update

    def counted_update(*args, **kwargs):
        updates[0] += 1
        return update(*args, **kwargs)

    beso.concurrent_update = counted_update
    beso.run = phase(beso.run, "run_s")
    io.verify = phase(io.verify, "verify_s")
    io.mcs_evaluate = phase(io.mcs_evaluate, "mcs_s")

    start = time.perf_counter()
    rc = rcto.cli.main(spec["argv"])
    cli_s = time.perf_counter() - start

    out = {
        "rc": rc,
        "cli_s": cli_s,
        "setup_s": marks.get("setup_end", start) - T0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rcto_file": rcto.__file__,
        "provenance": _provenance(),
    }
    if "run_s" in marks:
        history = os.path.join(spec["bundle"], "history.csv")
        # completed iterations: history rows on success, else the update count
        out["iterations"] = _history_rows(history) if rc == 0 else updates[0]
        out["phase_s"] = marks["run_s"]
        out["work"] = out["iterations"]
    if "verify_s_result" in marks:
        report, ihpa_calls = marks["verify_s_result"]
        out["phase_s"] = marks["mcs_s"]
        out["work"] = report.mcs.fea_calls
        out["verify"] = {
            "ihpa_fea_calls": ihpa_calls,
            "mcs_fea_calls": report.mcs.fea_calls,
            "ihpa": [report.ihpa.expectation, report.ihpa.std, report.ihpa.objective],
            "mcs": [report.mcs.expectation, report.mcs.std, report.mcs_objective],
            "ihpa_rel_err": report.relative_errors()["objective"],
        }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["beso.iterations"] = out.get("iterations", 0)
        out["layers"] = layers
        tracer.dump(spec["spans"])
    if spec["reevaluate"] and rc == 0 and "run_s" in marks:
        logged, recomputed = io.reevaluate_bundle(spec["bundle"])
        out["bundle_reeval_rel_err"] = abs(logged - recomputed) / abs(recomputed)
    return out


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    out = setup(spec) if spec["task"] == "setup" else run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
