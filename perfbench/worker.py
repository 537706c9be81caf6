"""One benchmark process: set up one workload, run its ops and check them.

run.py starts this file once per set-up measurement and once for the
measured run; it prints one JSON object as the last line of its standard
output.  With --trace 1 every op index runs twice, first untraced and then with
every layer binding wrapped (tracing.py).  Untraced, the host speed probe
(hostspeed.py) runs right after set-up and after every op, or every stage
of an op that runs in stages.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 3  # per timed loop, so that a median exists however slow an op is


def import_kaclab():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import kaclab
    import kaclab.config_io  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(kaclab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"kaclab was imported from {kaclab.__file__}, not from this checkout")
    return kaclab


class OpClock:
    """Wall and reference seconds of one op, which may run in stages.

    lap() ends a stage.  It probes the host (hostspeed.py) and scales the
    stage's wall time by the mean of the probes before and after it; the
    probe's own time counts in neither.  Without a first probe the clock
    only sums wall time and lap() probes nothing (traced runs).
    """

    def __init__(self, probe_s=None):
        self.probe_s = probe_s
        self.wall_s = self.ref_s = 0.0
        self.t0 = time.perf_counter()

    def lap(self):
        dt = time.perf_counter() - self.t0
        self.wall_s += dt
        if self.probe_s is not None:
            after_s = hostspeed.probe()
            self.ref_s += hostspeed.to_reference(dt, (self.probe_s + after_s) / 2)
            self.probe_s = after_s
        self.t0 = time.perf_counter()


def one_op(wl, k, probe_s=None, tracer=None) -> dict:
    if tracer is not None:
        tracer.begin_op(k)
    clock = OpClock(probe_s)
    out = wl.op(k, clock.lap)
    clock.lap()
    if tracer is not None:
        tracer.end_op()
    ok, record, work = wl.check(out)
    op = {"k": k, "op_s": clock.wall_s, "ref_s": clock.ref_s, "probe_s": clock.probe_s,
          "ok": bool(ok), "work": work, "record": record}
    if tracer is not None:
        layers = tracer.op_layers(k)
        layers.update(tracer.op_counts(k))
        tracer.calls.clear()
        layers.update(wl.layer_probe(out))
        op["layers"] = layers
    return op


def run_ops(wl, seconds, probe_s, tracer=None):
    """Run ops 0, 1, ... for `seconds` (at least MIN_OPS op indices).

    Untraced, `probe_s` is the probe taken after set-up and each op's clock
    probes the host.  With a tracer nothing is probed, and each op index
    runs twice, untraced and then traced, so that both see the same inputs
    and the same state of the host.
    """
    ops = []
    start = time.perf_counter()
    k = 0
    while k < MIN_OPS or time.perf_counter() - start < seconds:
        if tracer is None:
            ops.append(one_op(wl, k, probe_s))
            probe_s = ops[-1]["probe_s"]
        else:
            plain = one_op(wl, k)
            uninstall = tracing.install(tracer)
            try:
                traced = one_op(wl, k, tracer=tracer)
            finally:
                uninstall()
            # tracing must not change the work
            traced["ok"] = traced["ok"] and traced["record"] == plain["record"]
            ops += [plain, traced]
        k += 1
    return ops


def layer_metrics(ops) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op value."""
    traced = [op for op in ops if "layers" in op]
    untraced = [op for op in ops if "layers" not in op]
    per_op = []
    for op in traced:
        m = dict(op["layers"])
        busy, proposals, calls = m["engine.simulate.busy_s"], m["engine.proposals"], m["engine.simulate.calls"]
        m["engine.us_per_proposal"] = 1e6 * busy / proposals if proposals else 0.0
        m["engine.us_per_call"] = 1e6 * busy / calls if calls else 0.0
        m["engine.accept_ratio"] = m["engine.accepted"] / proposals if proposals else 0.0
        per_op.append(m)
    out = {key: statistics.median(m.get(key, 0) for m in per_op) for key in per_op[0]}
    for key in ("fenwick.build_s", "fenwick.updates", "fenwick.update_us", "fenwick.sample_us"):
        out.setdefault(key, 0.0)
    out["trace.overhead_s"] = (statistics.median(op["op_s"] for op in traced)
                               - statistics.median(op["op_s"] for op in untraced))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)

    kl = import_kaclab()
    import numpy
    import scipy

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](kl, args.seed, args.smoke, args.out_dir)
    setup_s = time.monotonic() - args.t_spawn
    probe_s = hostspeed.probe()
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
            return 0
        if args.trace:
            tracer = tracing.Tracer()
            ops = run_ops(wl, args.seconds, None, tracer)
            tracer.dump(os.path.join(args.out_dir, f"spans_{args.workload}_seed{args.seed}.json"))
        else:
            ops = run_ops(wl, args.seconds, probe_s)
    finally:
        wl.close()

    failed = sum(not op["ok"] for op in ops)
    with open(os.path.join(args.out_dir, f"records_{args.workload}_seed{args.seed}_trace{args.trace}.jsonl"), "w") as fh:
        for op in ops:
            fh.write(json.dumps({"op": op["k"], "traced": "layers" in op, "ok": op["ok"], **op["record"]},
                                sort_keys=True) + "\n")
    result = {
        "setup_s": setup_s,
        "probe_s": probe_s,
        "attempted": len(ops),
        "failed": failed,
        "ok": failed == 0,
        "work_unit": wl.work_unit,
        "op_s": [op["op_s"] for op in ops],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        result["layers"] = layer_metrics(ops)
        result["layers"]["error_rate"] = failed / len(ops)
    else:
        ref_s = [op["ref_s"] for op in ops]
        result["op_ref_s"] = ref_s
        result["e2e"] = {
            "op_p50_s": statistics.median(ref_s),
            "throughput": sum(op["work"] for op in ops) / sum(ref_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
