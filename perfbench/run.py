"""wavebench benchmark: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload report-warm --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Load is closed-loop with one client: ops run back to back in this process
for about --seconds (at least one op). --trace 0 reports the end-to-end
metrics; --trace 1 wraps every layer boundary in spans, writes them to
perfbench/_work/ and reports the per-layer metrics instead. The last line
of standard output is the result; README.md explains the rest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"      # metric names and units
WORK = HERE / "_work"
WORKLOADS = ("report-warm", "fit-sweep", "reference-cold")

# printed, and checked per op, where a workload has them
EXTRA_ACCURACY = ("ep_st_rel.mollifier", "cn_st_rel.mollifier")

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import wavebench.cli, wavebench.runner; "
                "print(time.perf_counter() - t)")
# Import time varies by about a fifth from run to run; the fastest of
# 6 fresh imports (about 3 s in all) is the steadiest figure of it that
# leaves the run's time to the ops. Within a run the fastest of 6 and of
# 15 differ less than the fastest of 15 differs between runs.
IMPORT_REPEATS = 6


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from harness import OpTally, Tracer, environment, median_with_count
    import layers
    import workloads

    spec = json.loads(SPEC.read_text())
    env = environment()
    print("environment", json.dumps(env, sort_keys=True))
    w = workloads.WORKLOADS[name](seed, WORK)
    fill_s = w.prepare()
    if fill_s:
        print(f"cache_fill_s {fill_s:.3f} (first run in this checkout)")

    tracer = Tracer() if trace else None
    if tracer:
        layers.instrument(tracer)
        tracer.op = ("setup",)
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    fixture = []
    for _ in range(w.FIXTURE_REPEATS):
        t0 = time.perf_counter()
        w.fixture()
        fixture.append(time.perf_counter() - t0)
    setup_s = min(imports) + statistics.median(fixture)

    # Another op starts only if, at the median op time so far, it would
    # end nearer the deadline than stopping now: a run measures about
    # --seconds whether an op takes 6 s or 25 s, and a 25 s op is not
    # followed by a second one that doubles the run.
    outputs, op_times = [], []
    deadline = time.perf_counter() + seconds
    while not outputs or (time.perf_counter()
                          + statistics.median(op_times) / 2 <= deadline):
        i = len(outputs)
        w.before_op(i)
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with tracer.span("op") if tracer else contextlib.nullcontext():
                out = w.op(i)
        except Exception:       # a failed op is counted, not fatal
            traceback.print_exc()
            out = None
        op_times.append(time.perf_counter() - t0)
        outputs.append(None if out is None else w.collect(i, out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = OpTally()
    for i, out in enumerate(outputs):
        if tracer:
            tracer.op = ("check", i)
        if out is None:
            tally.record(["op raised"])
            continue
        try:
            tally.record(w.check(i, out))
        except Exception as exc:
            traceback.print_exc()
            tally.record([f"check raised {exc!r}"])
    if tracer:
        tracer.op = ("check", "run")
    run_problems = w.finish()
    for problem in tally.problems + run_problems:
        print("FAILED CHECK:", problem, file=sys.stderr)

    op_p50, n_ops = median_with_count(op_times)
    print("op_s", " ".join(f"{t:.4f}" for t in op_times))
    print(f"ops {n_ops}, op_s_p50 {op_p50:.4f} s, "
          f"failed_ops_frac {tally.failed_frac:g} frac, "
          f"import_s {min(imports):.4f} s, "
          f"fixture_s {statistics.median(fixture):.4f} s")
    for key in EXTRA_ACCURACY:
        if key in w.accuracy:
            print(f"{key} {statistics.median(w.accuracy[key]):.6e} 1")

    if tracer:
        tracer.op = ("probe",)
        w.probe()
        tracer.restore()
        metrics = layers.layer_metrics(tracer, SRC)
        WORK.mkdir(parents=True, exist_ok=True)
        path = WORK / f"spans-{name}-seed{seed}.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({"workload": name, "seed": seed,
                                "environment": env}) + "\n")
            for s in tracer.spans:
                f.write(json.dumps(s.to_dict()) + "\n")
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        metrics = {
            "op_s_p50": (op_p50, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ops_frac": (1.0 - tally.failed_frac, "frac"),
        }
        for m in spec["end_to_end"]:
            if m["name"] not in metrics:
                metrics[m["name"]] = (statistics.median(w.accuracy[m["name"]]),
                                      m["unit"])
    w.cleanup()
    want = [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]
    got = [(k, u) for k, (_, u) in metrics.items()]
    if got != want:
        raise RuntimeError(f"metrics differ from {SPEC.name}: "
                           f"{sorted(set(got) ^ set(want))}")

    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    return {
        "correct": tally.failed == 0 and not run_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800)
        sys.stderr.write(proc.stderr)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavebench" / "__init__.py").is_file():
        print(f"error: wavebench sources not found under {SRC}", file=sys.stderr)
        return 2
    from harness import cap_blas_threads
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
