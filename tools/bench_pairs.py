"""Paired parent/change runs of the benchmark, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

``--parent`` and ``--change`` are two checkouts of the repository (for
example made with ``git archive``) that hold the same ``bench/``.  For each
workload (cli, chi, derive), pair i = 1..10 runs seed i on both checkouts
with ``python3 bench/run.py --workload W --seed i --seconds 25 --trace 0``:
the parent first when i is odd, the change first when i is even.  The output
file is rewritten after every pair, so an interrupted session keeps the
pairs it finished; a workload gets its summary only once all ten are done.
A ``passes`` or ``imports`` entry already in the file (see below) is kept.

For every end-to-end metric of ``BENCHMARK.json`` (and ``verify_s`` on
``cli``) the summary gives each side's median and quartiles, the pairs the
change won (ties count for neither side) and ``gain``: the change won at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles.  A run whose outputs are not all
correct, or that failed a request, stops the tool with exit status 1 and
names the run on stderr.  ``src_lines`` gives the lines of
``src/ellgenus/*.py`` in each checkout, counted as ``wc -l`` counts them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --passes N

times in-process passes of the same workloads instead, which resolve gains
of a few percent that a 25-second run cannot.  One worker process per
checkout imports its ``ellgenus`` and its ``bench/workloads.py``.  Pass i of
a workload sends the request list of seed i to both workers, the parent
first when i is odd; a worker empties every cache of the loaded
``ellgenus`` modules (``clear_caches``: each ``series._top_memo`` and each
``functools`` cache, so a pass builds its rows as a fresh process does; the
tests' ``_cold_memos`` calls the same function), times the pass and each
request, and then checks their outputs.
The result goes under the key ``passes`` of the output file and leaves its
other keys as they are: per workload the pass seconds (``pass_s``) and the
tail seconds (``tail_s``, the pass's request times read by ``bench/run.py``'s
rule: the highest percentile with at least ten samples beyond it) of every
pair, and their summaries, with the same wins and gain rule as above.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --imports N [--seed S]

times the start-up alone, with more samples than the benchmark's 21 probes:
pair i = 1..N runs one fresh interpreter per checkout, the parent first when
i is odd, each with ``PYTHONHASHSEED`` S + i (S is 0 by default).  Each
times ``import ellgenus, ellgenus.cli`` from the checkout's ``src``
(``import_s``) and reads its peak resident memory (``rss_mb``, from
``ru_maxrss``).  Bytecode is not written (``-B``), and a checkout that holds
cached bytecode of ``src/ellgenus`` stops the tool with exit status 1, so
every import compiles the package from source, as the benchmark's checkout
does.  The result goes under the key ``imports``, with the same wins and
gain rule, and the file's other keys stay as they are.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

WORKLOADS = ("cli", "chi", "derive")
PAIRS = 10
SECONDS = 25


def run_once(checkout, workload, seed):
    """The end-to-end metrics of one untraced run, plus verify_s on cli."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    report = os.path.join(checkout, ".bench_work", "%s-seed%d-trace0.json" % (workload, seed))
    with open(report) as fh:
        extra = json.load(fh)["extra"]
    if "verify_s" in extra:
        metrics["verify_s"] = extra["verify_s"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


IMPORT_CODE = (
    "import resource, time\n"
    "t = time.perf_counter()\n"
    "import ellgenus, ellgenus.cli\n"
    "t = time.perf_counter() - t\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(repr(t), rss, ellgenus.__file__)\n"
)


def import_once(checkout, hash_seed):
    """Seconds and peak MB of ``import ellgenus, ellgenus.cli`` in a fresh
    interpreter on the checkout's ``src``, or None when the package came
    from elsewhere."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_CODE], cwd=checkout,
                          env=env, capture_output=True, text=True, check=True)
    seconds, rss_kb, where = proc.stdout.split()
    if where != os.path.join(os.path.abspath(checkout), "src", "ellgenus", "__init__.py"):
        return None
    return {"import_s": float(seconds), "rss_mb": int(rss_kb) / 1024.0}


def fresh_imports(args):
    """The ``imports`` entry: ``args.imports`` alternating pairs of fresh
    interpreters, or None when a checkout cannot be timed from source."""
    for side in ("parent", "change"):
        cached = os.path.join(getattr(args, side), "src", "ellgenus", "__pycache__")
        if os.path.isdir(cached):
            print("bench_pairs: the %s checkout holds cached bytecode" % side,
                  file=sys.stderr)
            return None
    pairs = []
    for i in range(1, args.imports + 1):
        sides = ("parent", "change") if i % 2 else ("change", "parent")
        pair = {"hash_seed": args.seed + i, "first": sides[0]}
        for side in sides:
            metrics = import_once(getattr(args, side), args.seed + i)
            if metrics is None:
                print("bench_pairs: the %s interpreter imported another ellgenus" % side,
                      file=sys.stderr)
                return None
            pair[side] = {"metrics": metrics}
        pairs.append(pair)
    return {"interpreters": args.imports, "python": platform.python_version(),
            "pairing": "pair i runs one interpreter per side at PYTHONHASHSEED "
                       "seed + i; parent first for odd i",
            "pairs": pairs,
            "summary": summarise(pairs, {"import_s": "lower", "rss_mb": "lower"})}


def src_lines(checkout):
    """The newlines in the program files ``src/ellgenus/*.py`` of a checkout."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "ellgenus", "*.py")):
        with open(path) as fh:
            total += fh.read().count("\n")
    return total


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs, better):
    """Per metric: both sides' quartiles, the change's wins, and the gain rule."""
    out = {}
    for name, direction in better.items():
        done = [p for p in pairs if name in p["parent"]["metrics"]]
        if not done:
            continue
        parent = [p["parent"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        ps, cs = quartiles(parent), quartiles(change)
        out[name] = {
            "better": direction,
            "parent": ps,
            "change": cs,
            "change_vs_parent_median": cs["median"] / ps["median"] - 1 if ps["median"] else None,
            "change_wins": wins,
            "pairs": len(done),
            "gain": wins >= 0.9 * len(done)
            and sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"],
        }
    return out


def caches():
    """Every cache of the loaded ``ellgenus`` modules: each value with a
    ``cache_clear``, a ``series._top_memo`` or a ``functools`` cache."""
    return {
        value
        for name, module in list(sys.modules.items())
        if name.startswith("ellgenus.")
        for value in vars(module).values()
        if hasattr(value, "cache_clear")
    }


def clear_caches():
    """Empty every cache of ``caches``, as a fresh process starts."""
    for cache in caches():
        cache.cache_clear()


def worker():
    """Answer each ``WORKLOAD SEED`` line on stdin with the seconds of one
    cold pass, its tail request seconds, its request count and the number of
    wrong outputs, on one line of stdout."""
    import workloads  # bench/workloads.py of this checkout, on the path
    from run import tail  # bench/run.py's tail rule

    where = os.path.dirname(os.path.abspath(workloads.ellgenus.__file__))
    if where != os.path.join(os.getcwd(), "src", "ellgenus"):
        print("bench_pairs: imported ellgenus from %s" % where, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        for line in sys.stdin:
            workload, seed = line.split()
            reqs = workloads.generate(workload, int(seed), SECONDS, workdir)
            inputs = workloads.build_derive_inputs(reqs) if workload == "derive" else None
            clear_caches()
            outputs, times, start = [], [], perf_counter()
            for req in reqs:
                sent = perf_counter()
                outputs.append(workloads.execute(req, inputs))
                times.append(perf_counter() - sent)
            seconds = perf_counter() - start
            oracle = workloads.Oracle()
            wrong = sum(1 for r, o in zip(reqs, outputs) if workloads.check(r, o, oracle))
            print(seconds, tail(times)[0], len(reqs), wrong, flush=True)
    return 0


def start_worker(checkout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.join(checkout, d) for d in ("src", "bench")
    )
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker"], cwd=checkout, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def in_process_passes(args):
    """The ``passes`` entry: ``args.passes`` alternating cold passes per
    workload, or None when a pass had a wrong output."""
    workers = {side: start_worker(getattr(args, side)) for side in ("parent", "change")}
    doc = {"passes": args.passes, "python": platform.python_version(),
           "pairing": "pass i runs seed i on both sides; parent first for odd i",
           "workloads": {}}
    try:
        for workload in WORKLOADS:
            pairs = []
            for seed in range(1, args.passes + 1):
                sides = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": sides[0]}
                for side in sides:
                    proc = workers[side]
                    proc.stdin.write("%s %d\n" % (workload, seed))
                    proc.stdin.flush()
                    reply = proc.stdout.readline().split()
                    wrong = int(reply[3]) if len(reply) == 4 else None
                    if wrong != 0:
                        what = "no reply" if wrong is None else "%d wrong outputs" % wrong
                        print("bench_pairs: the %s pass of %s seed %d: %s"
                              % (side, workload, seed, what), file=sys.stderr)
                        return None
                    seconds, tail_s, requests, _ = reply
                    pair[side] = {"requests": int(requests), "metrics": {
                        "pass_s": float(seconds), "tail_s": float(tail_s)}}
                pairs.append(pair)
            doc["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarise(pairs, {"pass_s": "lower", "tail_s": "lower"}),
            }
    finally:
        for proc in workers.values():
            proc.communicate()  # closes its stdin, so the worker ends
    return doc


def main(argv=None):
    if argv is None and sys.argv[1:] == ["--worker"]:
        return worker()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--passes", type=int, help="in-process passes per workload")
    ap.add_argument("--imports", type=int, help="pairs of fresh interpreters")
    ap.add_argument("--seed", type=int, default=0,
                    help="import pair i runs at PYTHONHASHSEED seed + i")
    args = ap.parse_args(argv)
    for key, run in (("passes", in_process_passes), ("imports", fresh_imports)):
        if getattr(args, key) is not None:
            entry = run(args)
            if entry is None:
                return 1
            doc = {}
            if os.path.exists(args.out):
                with open(args.out) as fh:
                    doc = json.load(fh)
            doc[key] = entry
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    better["verify_s"] = "lower"
    lines = {"parent": src_lines(args.parent), "change": src_lines(args.change)}
    doc = {
        "command": "python3 bench/run.py --workload W --seed i --seconds %d --trace 0"
                   % SECONDS,
        "pairing": "pair i runs seed i on both sides; parent first for odd i",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "src_lines": lines,
        "workloads": {},
    }
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        doc.update((key, old[key]) for key in ("passes", "imports") if key in old)
    for workload in WORKLOADS:
        pairs = []
        doc["workloads"][workload] = {"pairs": pairs}
        for seed in range(1, PAIRS + 1):
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                run = pair[side] = run_once(getattr(args, side), workload, seed)
                if run["correct"] is not True or run["failed"]:
                    # the speed of wrong outputs is no measurement
                    what = (side, workload, seed, run["correct"], run["failed"])
                    print("bench_pairs: the %s run of %s seed %d is wrong: "
                          "correct=%r, failed=%d" % what, file=sys.stderr)
                    return 1
            pairs.append(pair)
            if len(pairs) == PAIRS:
                doc["workloads"][workload]["summary"] = summarise(pairs, better)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
