"""kaclab benchmark: one workload per invocation, one core, no threads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of the workloads in BENCHMARK.json.  The runner pins BLAS and
OpenMP to one thread, measures set-up in separate processes, runs the
workload in its own process and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  Times among the
end-to-end metrics are in reference seconds: each is scaled by the host
speed probe timed around it (hostspeed.py).  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.  --smoke runs each
workload at a tiny size.  Per-op determinism records and trace spans are
written under perfbench/out/
(perfbench/out/smoke/ for --smoke).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
N_SETUPS = 3  # set-up is measured this many times per run; the median is reported
DEADLINE_S = 170.0  # the whole invocation ends well inside 180 s


class BenchError(RuntimeError):
    pass


def run_worker(args, out_dir, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--t-spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kaclab", "__init__.py")):
        raise BenchError(f"no kaclab source under {os.path.join(ROOT, 'src')}")
    out_dir = os.path.join(OUT_DIR, "smoke") if args.smoke else OUT_DIR
    os.makedirs(out_dir, exist_ok=True)

    load_before = os.getloadavg()
    calib_s = hostspeed.probe()
    setups, setups_ref = [], []
    before_s = calib_s
    for i in range(N_SETUPS):
        if i:
            before_s = hostspeed.probe()
        res = run_worker(args, out_dir, deadline, setup_only=i < N_SETUPS - 1)
        setups.append(res["setup_s"])
        setups_ref.append(hostspeed.to_reference(res["setup_s"], (before_s + res["probe_s"]) / 2))
    load_after = os.getloadavg()

    if args.trace:
        values = dict(res["layers"], **{"host.calib_s": calib_s})
        wanted = spec["per_layer"]
    else:
        values = dict(res["e2e"], setup_s=statistics.median(setups_ref))
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        raise BenchError(f"metric mismatch: missing {sorted(names - set(values))}, "
                         f"unexpected {sorted(set(values) - names)}")
    host = {
        "nproc": len(os.sched_getaffinity(0)), "loadavg_before": load_before, "loadavg_after": load_after,
        **res["versions"], "calib_s": calib_s, "setup_runs_s": setups,
        "ops": res["attempted"], "op_s": res["op_s"], "op_ref_s": res.get("op_ref_s"),
        "ref_probe_s": hostspeed.REF_PROBE_S, "work_unit": res["work_unit"],
    }
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": bool(res["ok"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
