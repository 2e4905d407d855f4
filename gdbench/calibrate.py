#!/usr/bin/env python3
"""Calibrate the benchmark with the driver's own statistic.

Makes a clean checkout of the staged tree under /root/scratch (git archive,
so nothing .gitignore names and no build output comes along), builds there
with CARGO_TARGET_DIR=.bench_build, and runs every workload of
BENCHMARK.json ten times with ten different seeds, twice (seeds 1-10, then
11-20). For each (workload, end-to-end metric) it computes what the driver
computes: the distance between the first and third quartile of the ten
values, as statistics.quantiles(values, n=4) gives them, as a share of their
median; and the second set's median over the first's. Each timed cell is
shown in both forms, host-normalised cost and raw milliseconds, so the
normalisation is verified on this box and not taken on trust.

Usage (from the repository root, after `git add -A`):
    python3 gdbench/calibrate.py            # run, then write CALIBRATION.md
    python3 gdbench/calibrate.py --reuse    # rewrite CALIBRATION.md from the kept runs
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = "/root/scratch"
CHECKOUT = os.path.join(SCRATCH, "gdbench-calibration")
RUNS = os.path.join(SCRATCH, "gdbench-calibration-runs.jsonl")
SETS = [range(1, 11), range(11, 21)]
# metric -> the summary-line field holding the same op in raw milliseconds
RAW_FORM = {
    "report_cost": "raw_report_p50_ms",
    "dash_cost": "raw_dash_p50_ms",
}
# The write is timed and normalised like the reads, but not gated.
WRITE = ("write_cost", "raw_write_p50_ms")
# Alternative probe weightings (compute, stream, gather, scatter), judged from
# each run's median probe parts: raw median / weighted probe median.
WEIGHTINGS = {
    "1:1:1:1 (shipped)": (1, 1, 1, 1), "no compute": (0, 1, 1, 1), "compute x2": (2, 1, 1, 1),
    "compute only": (1, 0, 0, 0), "gather only": (0, 0, 1, 0),
}


def checkout():
    """The files git would commit, and nothing else."""
    shutil.rmtree(CHECKOUT, ignore_errors=True)
    os.makedirs(CHECKOUT)
    tree = subprocess.check_output(["git", "write-tree"], cwd=REPO, text=True).strip()
    archive = subprocess.Popen(["git", "archive", tree], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.check_call(["tar", "-x", "-C", CHECKOUT], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit("git archive failed")


def run_once(bench, workload, seed, trace=0):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    out = subprocess.run(cmd, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return {
        "workload": workload, "seed": seed, "wall_s": time.time() - started,
        "summary": json.loads(lines[-2]), "result": json.loads(lines[-1]),
    }


def measure(bench):
    checkout()
    workloads = [w["name"] for w in bench["workloads"]]
    # The first run builds; it is not part of any set.
    first = run_once(bench, workloads[0], 0)
    print(f"build + first run: {first['wall_s']:.0f} s", flush=True)
    with open(RUNS, "w") as keep:
        for s, seeds in enumerate(SETS):
            # Workloads interleaved under each seed: a set of ten spans the
            # whole pass, so host drift lands inside the spread it must meet.
            for seed in seeds:
                for w in workloads:
                    r = run_once(bench, w, seed)
                    r["set"] = s
                    keep.write(json.dumps(r) + "\n")
                    keep.flush()
                    m = r["result"]["metrics"]
                    print(f"set {s + 1} seed {seed:2d} {w:14s} {r['wall_s']:5.1f} s  " +
                          "  ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
        # One traced run per workload: the share.* table of the README.
        for w in workloads:
            r = run_once(bench, w, 1, trace=1)
            r["set"] = "trace"
            keep.write(json.dumps(r) + "\n")
    shutil.rmtree(CHECKOUT, ignore_errors=True)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def cell(runs, workload, value_of):
    """(spread set 1, spread set 2, median 2 / median 1) of one cell."""
    sets = [[value_of(r) for r in runs if r["workload"] == workload and r["set"] == s] for s in (0, 1)]
    return spread(sets[0]), spread(sets[1]), statistics.median(sets[1]) / statistics.median(sets[0])


def report(bench):
    runs = [json.loads(line) for line in open(RUNS)]
    timed = [r for r in runs if r["set"] != "trace"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = []
    say = out.append
    say("# Calibration\n")
    say("Written by `gdbench/calibrate.py`; do not edit by hand. Every run is one process of the")
    say("command in `BENCHMARK.json`, in a clean `git archive` checkout with `CARGO_TARGET_DIR=.bench_build`,")
    say(f"`--seconds {bench['run_seconds']}`. Two sets of ten runs per workload: seeds 1-10, then 11-20, workloads")
    say("interleaved under each seed. *spread* is the driver's statistic: the distance between the first and")
    say("third quartile of the ten values (`statistics.quantiles(values, n=4)`) over their median. *shift* is the")
    say("second set's median over the first's (all metrics are lower-is-better, so above 1 is worse).\n")
    host = timed[0]["summary"]
    say(f"Host: {host['cores']} cores; median host probe over all runs "
        f"{statistics.median(r['summary']['probe_p50_ms'] for r in timed):.1f} ms "
        f"(min {min(r['summary']['probe_p50_ms'] for r in timed):.1f}, "
        f"max {max(r['summary']['probe_p50_ms'] for r in timed):.1f}).\n")

    say("## Gated cells\n")
    say("The target is a third of the bound in both sets. `raw` columns show the same op as raw")
    say("milliseconds (the run's p50), for comparison only; they are not gated.\n")
    say("| workload | metric | bound | spread 1 | spread 2 | shift | median 1 | raw spread 1 | raw spread 2 | raw shift | verdict |")
    say("|---|---|---|---|---|---|---|---|---|---|---|")
    misses, steadier, timed_cells = [], 0, 0
    for w in workloads:
        for name, bound in bounds.items():
            s1, s2, shift = cell(timed, w, lambda r: r["result"]["metrics"][name]["value"])
            med = statistics.median(r["result"]["metrics"][name]["value"]
                                    for r in timed if r["workload"] == w and r["set"] == 0)
            raw = ("", "", "")
            if name in RAW_FORM:
                r1, r2, rshift = cell(timed, w, lambda r: r["summary"][RAW_FORM[name]])
                raw = (f"{r1:.3f}", f"{r2:.3f}", f"{rshift:.3f}")
                timed_cells += 1
                steadier += max(s1, s2) <= max(r1, r2)
            # setup_s is exempt from the spread rule, never from the shift rule.
            ok = (name == "setup_s" or max(s1, s2) < bound / 3) and shift - 1 < bound / 3
            if not ok:
                misses.append(f"{w} {name}")
            say(f"| {w} | {name} | {bound} | {s1:.3f} | {s2:.3f} | {shift:.3f} | {med:.4g} | "
                f"{raw[0]} | {raw[1]} | {raw[2]} | {'ok' if ok else 'MISS'} |")
    say("")
    say(f"Cells at or above a third of their bound: {', '.join(misses) if misses else 'none'}.")
    say(f"Cost no less steady than raw milliseconds (larger of the two spreads) on {steadier} of {timed_cells} timed cells.\n")

    say("## Not gated: the write\n")
    say("Every workload's write is timed each run and normalised like the reads (`write_cost` in the summary line,")
    say("`cost.write` per layer). It is not an end-to-end metric: the writes allocate and fault in fresh memory for")
    say("most of their time, which no part of the probe tracks, and their spread sits at the target on this host")
    say("whatever the weighting (next table).\n")
    say("| workload | cost spread 1 | cost spread 2 | cost shift | median 1 | raw spread 1 | raw spread 2 | raw shift |")
    say("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        s1, s2, shift = cell(timed, w, lambda r: r["summary"][WRITE[0]])
        r1, r2, rshift = cell(timed, w, lambda r: r["summary"][WRITE[1]])
        med = statistics.median(r["summary"][WRITE[0]] for r in timed if r["workload"] == w and r["set"] == 0)
        say(f"| {w} | {s1:.3f} | {s2:.3f} | {shift:.3f} | {med:.4g} | {r1:.3f} | {r2:.3f} | {rshift:.3f} |")
    say("")

    say("## Probe weighting\n")
    say("The cost divides by compute + stream + gather + scatter time with the weights in `src/host.rs`. Below, the")
    say("larger of the two sets' spreads of (run p50 in ms) / (weighted run-median probe parts) for other weightings —")
    say("an approximation of the gated median-of-ratios, good enough to compare weightings. `no compute` is the")
    say("three-part probe of the issue; `raw` is no normalisation at all.\n")
    say("| workload | op | " + " | ".join(WEIGHTINGS) + " | raw |")
    say("|---|---|" + "---|" * (len(WEIGHTINGS) + 1))
    for w in workloads:
        for name, field in list(RAW_FORM.items()) + [WRITE]:
            row = []
            for weights in WEIGHTINGS.values():
                def ratio(r, weights=weights):
                    parts = r["summary"]["probe_parts_ms"]
                    return r["summary"][field] / sum(a * b for a, b in zip(weights, parts))
                s1, s2, _ = cell(timed, w, ratio)
                row.append(f"{max(s1, s2):.3f}")
            r1, r2, _ = cell(timed, w, lambda r: r["summary"][field])
            say(f"| {w} | {name.split('_')[0]} | " + " | ".join(row) + f" | {max(r1, r2):.3f} |")
    say("")

    say("## Run health\n")
    say("| workload | runs | all correct | failed ops | floors held | events (all seeds) | mentions min-max | "
        "n report / dash / write (min) | slowest op ms (max) | check share (max) | wall s (median) |")
    say("|---|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        rs = [r for r in timed if r["workload"] == w]
        su = [r["summary"] for r in rs]
        events = sorted({s["events"] for s in su})
        mentions = [s["mentions"] for s in su]
        say(f"| {w} | {len(rs)} | {all(r['result']['correct'] for r in rs)} | "
            f"{sum(r['result']['failed'] for r in rs)} | {sum(s['floors_ok'] for s in su)}/{len(su)} | "
            f"{events[0] if len(events) == 1 else events} | {min(mentions)}-{max(mentions)} "
            f"({(max(mentions) - min(mentions)) / min(mentions):.2%}) | "
            f"{min(s['n_report'] for s in su)} / {min(s['n_dash'] for s in su)} / {min(s['n_write'] for s in su)} | "
            f"{max(s['slowest_op_ms'] for s in su):.0f} | {max(s['check_share'] for s in su):.3f} | "
            f"{statistics.median(r['wall_s'] for r in rs):.1f} |")
    total = sum(r["wall_s"] for r in timed)
    say(f"\nAll {len(timed)} timed runs took {total:.0f} s; the driver's 4 + 22 x {len(workloads)} runs at the same "
        f"pace take about {total / len(timed) * (4 + 22 * len(workloads)):.0f} s of its 3420 s.\n")

    say("## Measured shares\n")
    say("`share.<op>.<layer>` from one traced run per workload (seed 1): each layer's self time as a share of the op.\n")
    layers = ["csv", "columnar", "engine", "serve", "shard", "harness"]
    say("| workload | op | " + " | ".join(layers) + " |")
    say("|---|---|" + "---|" * len(layers))
    for r in runs:
        if r["set"] != "trace":
            continue
        for op in ("report", "dash", "write"):
            vals = [r["result"]["metrics"][f"share.{op}.{layer}"]["value"] for layer in layers]
            say(f"| {r['workload']} | {op} | " + " | ".join(f"{v:.3f}" for v in vals) + " |")
    say("")
    with open(os.path.join(REPO, "gdbench", "CALIBRATION.md"), "w") as f:
        f.write("\n".join(out))
    print("\n".join(out))
    return not misses


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reuse", action="store_true", help="rewrite CALIBRATION.md from the runs kept in /root/scratch")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    if not args.reuse:
        measure(bench)
    sys.exit(0 if report(bench) else 1)


if __name__ == "__main__":
    main()
