"""Runs the benchmark over several seeds and summarises the spread.

    python3 perfbench/record.py [--workloads a,b] [--seeds 1-10] [--append]

Run it from the repository root. For every workload it runs
`bash perfbench/run.sh --trace 0` once per seed, prints each run, then the
median and the IQR over median (statistics.quantiles, n=4) of every
summary figure, with the gated figures' bounds from BENCHMARK.json. With
--append it adds the result as one entry to perfbench/trajectory.json.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {p.returncode})\n{p.stderr}")
    last = json.loads(lines[-1])
    info = next(json.loads(l[5:]) for l in lines if l.startswith("info "))
    return p.returncode, last, info


def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(xs, n=4)
    return med, (q[2] - q[0]) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)

    entry = {"date": datetime.date.today().isoformat(), "run_seconds": bench["run_seconds"],
             "seeds": args.seeds, "workloads": {}}
    ok = True
    for w in names:
        figures, steal, failed = {}, [], 0
        for s in seeds:
            code, last, info = run_once(w, s, bench["run_seconds"])
            failed += last["failed"] + (code != 0)
            steal.append(info["steal_frac"])
            for k, v in info["summary"].items():
                figures.setdefault(k, []).append(v)
            entry["host"] = info["host"]
            print(f"{w} seed {s}: exit {code} steal {info['steal_frac']:.2f} " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(info["summary"].items())), flush=True)
        out = {"failed": failed, "steal_frac_median": statistics.median(steal)}
        for k, xs in figures.items():
            med, iqr = spread(xs)
            out[k] = {"median": med, "iqr_frac": iqr, "n": len(xs)}
            note = ""
            if k in bounds:
                good = iqr <= bounds[k]
                ok = ok and good
                note = f"bound {bounds[k]} {'ok' if good else 'SPREAD ABOVE BOUND'}"
            print(f"  {w:13s} {k:16s} median={med:<12.5g} iqr/median={iqr:.3f} {note}")
        ok = ok and failed == 0
        entry["workloads"][w] = out
    if args.append:
        with open("perfbench/trajectory.json") as f:
            traj = json.load(f)
        traj.append(entry)
        with open("perfbench/trajectory.json", "w") as f:
            json.dump(traj, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
