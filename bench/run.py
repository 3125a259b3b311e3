"""The ellgenus benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload derive|chi|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.  One
client sends the next request only after the previous one returned (no
threads, no processes besides the set-up probes and, traced, the untraced
comparison run).  Every request's output is checked exactly, after the whole
timed pass, so no check's work can be reused by a timed request.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
request list traced in this process and untraced in a fresh one, checks that
both give identical outputs, and reports the per-layer metrics together with
the tracing overhead.  Times are reported at the reference speed of
``speed.py``.  The metric names and units come from ``BENCHMARK.json``.
A human-readable summary goes to stdout first; the last stdout line is one
JSON object.  A full report (and, traced, all spans) is written under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("derive", "chi", "cli")
SETUP_PROBES = 21
# Runs in each fresh interpreter: time the import, then the speed probe.
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ellgenus, ellgenus.cli\n"
    "t = time.perf_counter() - t\n"
    "import speed, statistics\n"
    "print(repr(t), repr(statistics.median(speed.probe() for _ in range(5))))\n"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def measure_setup():
    """Seconds a fresh interpreter takes to import ``ellgenus`` and
    ``ellgenus.cli``, after which it can take a request: the median of
    SETUP_PROBES interpreters, each at the reference speed of the probe it
    timed right after the import.  Also returns the raw import times."""
    env = dict(os.environ)
    path = [SRC, os.path.dirname(os.path.abspath(__file__))]
    env["PYTHONPATH"] = os.pathsep.join(path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    raw, corrected = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, probe = map(float, proc.stdout.split())
        raw.append(seconds)
        corrected.append(seconds * speed.REF_PROBE_S / probe)
    return statistics.median(corrected), raw


def run_pass(workloads, reqs, inputs, tracer=None):
    """Send every request in order, timing the speed probe after each one.

    Returns the raw latencies, the speed factors that bring them to the
    reference speed, the outputs and the crashes (None when the request
    returned).  Nothing else of the program runs between requests: the
    outputs are checked only after the whole pass, by :func:`check_pass`.
    """
    latencies, probes, outputs, crashes = [], [speed.probe()], [], []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
            tracer.active = True
        start = perf_counter()
        try:
            out = workloads.execute(req, inputs)
            err = None
        except Exception as exc:  # a crashed request is a failed request
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        latencies.append(perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        probes.append(speed.probe(speed.calls_after(latencies[-1])))
        outputs.append(out)
        crashes.append(err)
    return latencies, speed.factors(probes), outputs, crashes


def check_pass(workloads, reqs, outputs, crashes):
    """The failure of every request (None when correct) and the digests of
    the outputs, after a pass; the checks compute their own reference values."""
    oracle = workloads.Oracle()
    failures, digests = [], []
    for req, out, err in zip(reqs, outputs, crashes):
        if err is None:
            try:
                err = workloads.check(req, out, oracle)
            except Exception as exc:  # an output the check cannot read is wrong
                err = "check raised %s: %s" % (type(exc).__name__, exc)
        failures.append(err)
        digests.append(None if out is None else workloads.digest(out))
    return failures, digests


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that still
    has at least ten samples above it; the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, latencies, failures, setup, rss_mb):
    """The end-to-end metrics and the extra figures of one untraced pass;
    ``latencies`` are at the reference speed and ``rss_mb`` is the peak
    resident memory when the pass ended."""
    done = sum(1 for f in failures if f is None)
    value, pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": done / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * value,
        "peak_rss_mb": rss_mb,
        "setup_s": setup,
    }
    extra = {
        "fail_ratio": (len(failures) - done) / len(failures),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "samples": len(latencies),
    }
    if workload == "cli":
        extra["verify_s"] = latencies[0]
    return metrics, extra


def untraced_report(args):
    """Run the same workload and seed untraced in a fresh interpreter and
    return its report (metrics and output digests)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("untraced run exited %d: %s" % (proc.returncode, proc.stderr[-500:]))
    tag = "%s-seed%d-trace0.json" % (args.workload, args.seed)
    with open(os.path.join(WORKDIR, tag)) as fh:
        return json.load(fh)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return ({m["name"]: m["unit"] for m in contract["end_to_end"]},
            {m["name"]: m["unit"] for m in contract["per_layer"]})


def emit(result, units, attempted, failed, summary, report_path, report):
    for line in summary:
        print(line)
    for name, unit in units.items():
        print("  %-48s %16.6f %s" % (name, result[name], unit))
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print("report: %s" % os.path.relpath(report_path, ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": result[n], "unit": u} for n, u in units.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ellgenus", "__init__.py")):
        print("error: no ellgenus sources under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ellgenus

    if os.path.dirname(os.path.abspath(ellgenus.__file__)) != os.path.join(SRC, "ellgenus"):
        print("error: imported ellgenus from %s, not from %s" % (ellgenus.__file__, SRC),
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    e2e_units, layer_units = load_contract()
    os.makedirs(WORKDIR, exist_ok=True)
    inputs_dir = tempfile.mkdtemp(prefix="inputs-", dir=WORKDIR)
    try:
        reqs = workloads.generate(args.workload, args.seed, args.seconds, inputs_dir)
        props = workloads.properties(args.workload, reqs)
        inputs = workloads.build_derive_inputs(reqs) if args.workload == "derive" else None
        tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        report = {"args": vars(args), "python": platform.python_version(),
                  "machine": platform.machine(), "cpus": os.cpu_count(),
                  "inputs": props}
        summary = ["workload %s seed %d: %d requests, repeat_share %.3f"
                   % (args.workload, args.seed, len(reqs), props["repeat_share"]),
                   "inputs: %s" % json.dumps(props, sort_keys=True)]

        if args.trace == 0:
            setup, setup_raw = measure_setup()
            raw, factors, outputs, crashes = run_pass(workloads, reqs, inputs)
            rss = peak_rss_mb()
            failures, digests = check_pass(workloads, reqs, outputs, crashes)
            latencies = [t * f for t, f in zip(raw, factors)]
            metrics, extra = end_to_end(args.workload, latencies, failures, setup, rss)
            raw_metrics, raw_extra = end_to_end(args.workload, raw, failures,
                                                statistics.median(setup_raw), rss)
            report.update(metrics=metrics, extra=extra, raw_metrics=raw_metrics,
                          raw_extra=raw_extra, setup_raw=setup_raw,
                          speed_factor=statistics.median(factors), digests=digests,
                          latencies=[[repr(r.key), t, c]
                                     for r, t, c in zip(reqs, raw, latencies)],
                          failures=[f for f in failures if f][:20])
            summary.append("fail_ratio %.4f; op_tail_ms is p%.1f with %d samples beyond "
                           "(%d samples)" % (extra["fail_ratio"], extra["op_tail_percentile"],
                                             extra["op_tail_samples_beyond"], extra["samples"]))
            summary.append("median speed factor %.3f (raw ops_per_s %.4f, op_p50_ms %.3f)"
                           % (report["speed_factor"], raw_metrics["ops_per_s"],
                              raw_metrics["op_p50_ms"]))
            if "verify_s" in extra:
                summary.append("verify_s %.3f s (raw %.3f s)"
                               % (extra["verify_s"], raw_extra["verify_s"]))
            summary += ["FAILED: %s" % f for f in report["failures"][:5]]
            failed = sum(1 for f in failures if f)
            emit(metrics, e2e_units, len(reqs), failed, summary,
                 os.path.join(WORKDIR, tag + ".json"), report)
            return 0

        # The traced pass runs first in this process, which has run nothing
        # of the program yet; the untraced pass it is compared with runs in
        # a fresh interpreter, so neither reuses work the other did.
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_raw, factors, outputs, crashes = run_pass(workloads, reqs, inputs,
                                                             tracer=tracer)
        finally:
            tracer.remove()
        traced = sum(t * f for t, f in zip(traced_raw, factors))
        failures, traced_dig = check_pass(workloads, reqs, outputs, crashes)
        untraced = untraced_report(args)
        for i, (a, b) in enumerate(zip(untraced["digests"], traced_dig)):
            if a != b and failures[i] is None:
                failures[i] = "traced output differs from untraced output"
        # span times move to the reference speed with the traced pass's factor
        scale = traced / sum(traced_raw)
        layers = {k: v * scale if k.endswith("_s") else v
                  for k, v in tracer.metrics().items()}
        missing = sorted(set(layer_units) - set(layers))
        if missing:
            print("error: per-layer metrics not produced: %s" % missing, file=sys.stderr)
            return 2
        plain_ops = untraced["metrics"]["ops_per_s"]
        traced_ops = sum(1 for f in crashes if f is None) / traced
        overhead = {"untraced_ops_per_s": plain_ops, "traced_ops_per_s": traced_ops,
                    "ops_per_s_difference": traced_ops - plain_ops,
                    "ops_per_s_difference_share": (traced_ops - plain_ops) / plain_ops,
                    "spans": len(tracer.span_start), "speed_scale": scale}
        terms = tracer.integrand_terms
        props["integrand_terms"] = [min(terms), max(terms)] if terms else None
        spans_path = os.path.join(WORKDIR, "spans-%s-seed%d.json.gz" % (args.workload, args.seed))
        tracer.write_spans(spans_path)
        report.update(per_layer=layers, overhead=overhead,
                      spans=os.path.relpath(spans_path, ROOT),
                      failures=[f for f in failures if f][:20])
        summary += [
            "integrand terms (min, max): %s" % (props["integrand_terms"],),
            "tracing overhead: %.4f req/s traced vs %.4f untraced (%+.1f%%), %d spans"
            % (traced_ops, plain_ops, 100 * overhead["ops_per_s_difference_share"],
               overhead["spans"]),
            "series.mul.self_s is %.1f%% of traced request time"
            % (100 * layers["series.mul.self_s"] / traced),
            "traced outputs identical to untraced: %s" % (untraced["digests"] == traced_dig),
        ]
        summary += ["  %-48s %16.6f" % (k, v) for k, v in sorted(layers.items())
                    if k not in layer_units and v]
        summary += ["FAILED: %s" % f for f in report["failures"][:5]]
        failed = sum(1 for f in failures if f)
        emit(layers, layer_units, len(reqs), failed, summary,
             os.path.join(WORKDIR, tag + ".json"), report)
        return 0
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
