"""pathlift benchmark: four workloads, end-to-end metrics, a traced run.

Run from the root of a source checkout (pathlift is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload she-mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in its own single-threaded process. With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics
(ops_per_s, op_p50_ms, op_p90_ms, setup_s, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans go to ``.perfbench/trace/``. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("she-mc", "path-kernels", "euler-form2", "cli-mix")
# set-up runs per measurement; setup_s is their median
SETUPS = 3
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(name, seed, seconds, trace, mode):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--mode", mode,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREADS},
            capture_output=True, text=True,
            # room for the 100-operation floor and the checks past --seconds
            timeout=2 * seconds + 120,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} {mode} process timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{name} {mode} process exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    setups = [spawn(name, seed, seconds, trace, "setup")["setup_s"]
              for _ in range(0 if trace else SETUPS - 1)]
    rep = spawn(name, seed, seconds, trace, "measure")
    setups.append(rep["setup_s"])
    result = {
        # an operation that raised is failed but not wrong; a failed check is both
        "correct": rep["wrong"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "notes": rep["notes"],
    }
    if trace:
        result["metrics"] = rep["trace"]
        return result
    lat_ms = [1e3 * x for x in rep["cpu"]]
    result["metrics"] = {
        "ops_per_s": {"value": len(lat_ms) / rep["cpu_s"], "unit": "op/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[-1],
                      "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rep["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pathlift" / "__init__.py").is_file():
        print(f"error: no pathlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results, errors = {}, []
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            errors.append(f"error: {exc}")
    for name, res in results.items():
        for note in res.pop("notes"):
            print(f"{name}: FAILED {note}")
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
