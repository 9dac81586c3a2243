"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

The two sets run one after the other.  For each set and workload, it runs
``perfbench/run.py`` untraced ``--runs`` times, each with another seed and
the ``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it
prints each set's median and quartiles (``statistics.quantiles(values,
n=4)``), the quartile spread as a share of the median, and how much worse
the second median is than the first, both against the metric's bound;
``setup_s`` is held to its bound like the others.  The share of failed
operations must be equal in the two sets.  It also shows the spread of the
raw wall times.  The results, with each run's stderr summary, go to
``.perfbench_work/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_work" / "steadiness.json"
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
    result["summary"] = json.loads(proc.stderr.strip().splitlines()[-1])
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec, sets):
    """Rows of the comparison table of two sets and whether every row is
    within bounds."""
    rows, ok = [], True
    for workload in sets[0]:
        shares = {
            sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
            for s in sets
        }
        if len(shares) != 1:
            ok = False
            rows.append(f"| {workload} | failed share | differs between sets: {sorted(shares)} |")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in s[workload]]) for s in sets]
            cells = []
            for st in stats:
                held = st["spread"] <= bound
                ok &= held
                cells.append(
                    f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}]"
                    f" spread {st['spread']:.1%}{'' if held else ' OVER'}"
                )
            worse = worse_by(stats[0]["median"], stats[1]["median"], m["better"])
            ok &= worse <= bound
            diff = f"{worse:+.1%}{'' if worse <= bound else ' OVER'}"
            rows.append(f"| {workload} | {name} | {' | '.join(cells)} | {diff} | {bound:.0%} |")
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ns = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ns.workloads.split(",") if ns.workloads else [w["name"] for w in spec["workloads"]]
    sets = []
    seed = 1
    for k in range(SETS):
        results = {w: [] for w in names}
        for w in names:
            for _ in range(ns.runs):
                t0 = time.monotonic()
                results[w].append(run_once(w, seed, spec["run_seconds"]))
                print(f"set {k + 1} {w} seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)
                seed += 1
        sets.append(results)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(sets, indent=1), encoding="utf-8")
    print("| workload | metric | set 1 median [q1, q3] | set 2 median [q1, q3] | set 2 worse by | bound |")
    print("|" + " --- |" * 6)
    rows, ok = compare(spec, sets)
    print("\n".join(rows))
    print("\nRaw wall time of a round, before rescaling by the speed probe:")
    for w in names:
        for k, s in enumerate(sets):
            raw = summarize([statistics.median(r["summary"]["round_wall_s"]) for r in s[w]])
            print(f"- {w}, set {k + 1}: median {raw['median']:.4g} s, spread {raw['spread']:.1%}")
    print(f"\n{ns.runs} runs per workload per set; {'all within bounds' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
