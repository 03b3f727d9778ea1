#!/usr/bin/env python3
"""Steadiness runs: every workload on several seeds, then the spread of
each metric in raw and normalized form.

    # one set: every workload on seeds 1-10, spreads printed, runs saved
    python3 perfbench/steady.py run --seeds 1-10 --out .bench_work/set-a.json
    # a quick look at one workload
    python3 perfbench/steady.py run --workloads ingest-durable --seeds 1-5
    # traced runs, for the per-layer metrics and the tracing overhead
    python3 perfbench/steady.py run --seeds 1-5 --trace --out .bench_work/traced.json
    # rewrite STEADINESS.md from two saved sets and a traced set
    python3 perfbench/steady.py record .bench_work/set-a.json .bench_work/set-b.json \\
        --traced .bench_work/traced.json

Spread is the interquartile range of the per-seed values over their
median (Python's statistics.quantiles(values, n=4)). Every timing gates
its normalized form; counts and sizes have only the raw one. `record`
keeps the hand-written part of STEADINESS.md, from the heading
"## Earlier configurations" on.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "STEADINESS.md")
KEEP_FROM = "## Earlier configurations"
METRIC = re.compile(r"^metric (\S+) = (\S+) (\S+) \[gated: (\w+)\] raw=(\S+) normalized=(\S+)")
CALIB = re.compile(r"^calibration (.+): median (\S+) iter/s")

HEADER = """# Steadiness record

Written by `python3 perfbench/steady.py record` from saved sets of runs (see
its docstring). For every workload and metric: the median and quartiles of
the per-seed values in raw and normalized form, and their spread
(interquartile range over median). Every timing gates its normalized form:
bulk-sum must, and for ingest-durable it is the form whose widest spread
over all the sets recorded here and below is narrower (DESIGN.md, "Gated
form"). Counts and sizes have no normalized form. The second set repeats
the first on other seeds, as a check that two sets of runs of the same code
agree within the bounds.
"""


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    metrics, calib = {}, {}
    for line in lines:
        m = METRIC.match(line)
        if m:
            name, value, unit, gated, raw, norm = m.groups()
            metrics[name] = {"value": float(value), "unit": unit, "gated": gated, "raw": float(raw),
                             "norm": None if norm == "-" else float(norm)}
        c = CALIB.match(line)
        if c:
            calib[c.group(1)] = float(c.group(2))
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s wall, "
          f"{json.dumps({k: round(v['value'], 6) for k, v in result['metrics'].items()})}",
          file=sys.stderr)
    return {"seed": seed, "wall_s": wall, "result": result, "metrics": metrics, "calib": calib}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def table(runs, names, bounds):
    """Rows of per-metric medians, quartiles and spreads in both forms."""
    md = ["| metric | unit | gated | median raw | q1-q3 raw | spread raw | median norm | q1-q3 norm "
          "| spread norm | bound |",
          "|---|---|---|---|---|---|---|---|---|---|"]
    for name in names:
        ms = [r["metrics"][name] for r in runs]
        raw = spread([m["raw"] for m in ms])
        row = [name, ms[0]["unit"], ms[0]["gated"], f"{raw[0]:.6g}", f"{raw[1]:.6g}-{raw[2]:.6g}",
               f"{raw[3]:.4f}"]
        if ms[0]["norm"] is None:
            row += ["-", "-", "-"]
        else:
            norm = spread([m["norm"] for m in ms])
            row += [f"{norm[0]:.6g}", f"{norm[1]:.6g}-{norm[2]:.6g}", f"{norm[3]:.4f}"]
        bound = bounds.get(name)
        row.append("-" if bound is None else f"{bound}")
        md.append("| " + " | ".join(row) + " |")
    return md


def summary(runs):
    """Calibration rates, wall times and failures of a set of runs."""
    md = [""]
    cal = {}
    for r in runs:
        for label, rate in r["calib"].items():
            cal.setdefault(label, []).append(rate)
    for label, rates in cal.items():
        md.append(f"Calibration ({label}), per-run medians: min {min(rates):.4e}, "
                  f"median {statistics.median(rates):.4e}, max {max(rates):.4e} iter/s.")
    walls = [r["wall_s"] for r in runs]
    md.append(f"Wall time per run: {min(walls):.1f}-{max(walls):.1f} s.")
    fails = sum(r["result"]["failed"] for r in runs)
    md.append(f"Failed operations over all runs: {fails} of "
              f"{sum(r['result']['attempted'] for r in runs)}.")
    return md


def cmd_run(args):
    b = bench()
    workloads = args.workloads or ",".join(w["name"] for w in b["workloads"])
    seconds = args.seconds or b["run_seconds"]
    names = [m["name"] for m in b["per_layer" if args.trace else "end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    saved = {"seconds": seconds, "cpus": os.cpu_count(), "seeds": args.seeds,
             "trace": int(args.trace), "runs": {}}
    for workload in workloads.split(","):
        runs = [run(workload, seed, seconds, int(args.trace)) for seed in args.seeds]
        saved["runs"][workload] = runs
        print(f"## {workload}")
        print("\n".join(table(runs, names, bounds) + summary(runs)))
        print()
        if args.out:
            with open(args.out, "w") as f:
                json.dump(saved, f)


def load(path):
    with open(path) as f:
        return json.load(f)


def set_heading(s):
    return f"seeds {s['seeds'][0]}-{s['seeds'][-1]}, --seconds {s['seconds']}, {s['cpus']} CPUs"


def cmd_record(args):
    b = bench()
    e2e = [m["name"] for m in b["end_to_end"]]
    layer = [m["name"] for m in b["per_layer"]]
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    better = {m["name"]: m["better"] for m in b["end_to_end"]}
    first, second = load(args.first), load(args.second)
    md = [HEADER]
    for label, s in (("First set", first), ("Second set", second)):
        md += [f"## {label}: {set_heading(s)}", ""]
        for workload, runs in s["runs"].items():
            md += [f"### {workload}", ""] + table(runs, e2e, bounds) + summary(runs) + [""]

    md += ["## The two sets compared", "",
           "\"Second worse by\" is the change of the gated median in the metric's worse direction.",
           "",
           "| workload | metric | median, first | median, second | second worse by | spread first "
           "| spread second | bound | spreads below a third of the bound | shift within bound |",
           "|---|---|---|---|---|---|---|---|---|---|"]
    for workload, runs in first["runs"].items():
        for name in e2e:
            a = [r["result"]["metrics"][name]["value"] for r in runs]
            z = [r["result"]["metrics"][name]["value"] for r in second["runs"][workload]]
            sa, sz = spread(a), spread(z)
            shift = (sz[0] - sa[0]) / sa[0] if sa[0] else 0.0
            worse = shift if better[name] == "lower" else -shift
            third = "yes" if max(sa[3], sz[3]) < bounds[name] / 3 else "no"
            if name == "setup_s":
                third += " (not gated)"
            md.append(f"| {workload} | {name} | {sa[0]:.6g} | {sz[0]:.6g} | {worse:+.1%} | {sa[3]:.4f} "
                      f"| {sz[3]:.4f} | {bounds[name]} | {third} "
                      f"| {'ok' if worse <= bounds[name] else 'NO'} |")
    md.append("")

    if args.traced:
        t = load(args.traced)
        md += [f"## Traced runs (--trace 1): {set_heading(t)}", "",
               "Per-layer metrics in both forms. A layer a workload never calls reports 0. "
               "`trace.overhead_pct` compares the traced and untraced halves of each run "
               "(bulk-sum: normalized serial values/s lost; ingest-durable: normalized add p50 added).",
               ""]
        for workload, runs in t["runs"].items():
            used = [n for n in layer if any(r["metrics"][n]["raw"] != 0 for r in runs)]
            md += [f"### {workload}", ""] + table(runs, used, {}) + summary(runs) + [""]

    try:
        with open(RECORD) as f:
            old = f.read()
        kept = old[old.index(KEEP_FROM):]
    except (OSError, ValueError):
        kept = ""
    with open(RECORD, "w") as f:
        f.write("\n".join(md) + "\n" + kept)


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", default="")
    r.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out", default="")
    c = sub.add_parser("record")
    c.add_argument("first")
    c.add_argument("second")
    c.add_argument("--traced", default="")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    else:
        cmd_record(args)


if __name__ == "__main__":
    main()
