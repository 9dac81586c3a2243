"""Benchmark of formality-lab through its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round runs
``formality_lab.cli.main`` on the workload's manifest, with ``--jobs 1``,
in a fresh child process; rounds run one at a time, as many whole rounds
as fit in ``--seconds`` (at least one).  Every round's structured report is
checked (see workloads.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (operations are manifest
jobs; a job fails when its status is ``fail`` or it raised) and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  A human summary goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from speed import REFERENCE_PROBE_S, timed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 15  # extra launches that stop before the first job
LAUNCH_PROBES = 5  # probes the parent times just before each launch


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def ledger_hash():
    sys.path.insert(0, str(ROOT / "src"))
    from formality_lab.conventions import ledger_hash

    return ledger_hash()


def launch_scale():
    """Speed scale for the set-up of the child about to start: set-up is
    too short for the child to sample, so the parent probes the host just
    before the launch, on its own thread."""
    return REFERENCE_PROBE_S / statistics.median(timed_probe() for _ in range(LAUNCH_PROBES))


def launch(mode, manifest, tmp, deadline):
    """Run one child to completion; returns (parent start time, sidecar,
    report or None)."""
    report = Path(tmp) / "report.json"
    sidecar = Path(tmp) / "sidecar.json"
    for p in (report, sidecar):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), mode, str(manifest), str(report), str(sidecar)]
    # Fixed string hashing, so that per-layer counts repeat exactly even
    # where the program iterates over a set of strings.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round did not finish before the deadline")
    if proc.returncode not in (0, 1) or not sidecar.exists():
        raise BenchError(f"{mode} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    side = json.loads(sidecar.read_text(encoding="utf-8"))
    rep = None
    if mode != "setup":
        rep = json.loads(report.read_text(encoding="utf-8"))
    return t0, side, rep


def measure(name, seed, seconds, trace):
    """All rounds of one run; returns (correct, attempted, failed, metrics)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    expected_hash = ledger_hash()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        manifest = workloads.manifest_path(name, seed, ROOT, tmp)
        setups = []  # (raw set-up seconds, scale of its launch)
        if not trace:
            for _ in range(SETUP_SAMPLES):
                scale = launch_scale()
                t0, side, _ = launch("setup", manifest, tmp, deadline)
                setups.append((side["marks"]["first_job"] - t0, scale))
        rounds = []
        measure_start = time.monotonic()
        while True:
            scale = launch_scale()
            t0, side, rep = launch("trace" if trace else "run", manifest, tmp, deadline)
            marks = side["marks"]
            setups.append((marks["first_job"] - t0, scale))
            rounds.append((marks["end"] - marks["first_job"], side, rep))
            # Only whole rounds that fit in the window: another round runs
            # only if one more of the same length ends within it.
            now = time.monotonic()
            last = now - t0
            if now + last > min(measure_start + seconds, deadline):
                break

    problems, tallies = [], set()
    attempted = failed = 0
    for _, _, rep in rounds:
        problems.extend(workloads.check_report(name, rep, expected_hash))
        a, f, checks = workloads.tally(rep)
        attempted += a
        failed += f
        tallies.add((a, checks))
    if len(tallies) != 1:
        problems.append(f"rounds disagree on (jobs, checks): {sorted(tallies)}")

    wall_s = [r[0] for r in rounds]
    probes = [side["probe_s"] for _, side, _ in rounds]
    if not all(probes):
        raise BenchError("a round ended before the speed probe took a sample")
    scale = [REFERENCE_PROBE_S / statistics.median(p) for p in probes]
    run_s = [w * k for w, k in zip(wall_s, scale)]
    values = {}
    if trace:
        layers = [side["layers"] for _, side, _ in rounds]
        for m in wanted:
            key = m["name"]
            if any(key not in layer for layer in layers):
                raise BenchError(f"the traced run does not measure {key}")
            got = [layer[key] for layer in layers]
            if m["unit"] == "s":
                values[key] = statistics.median(got)
            else:
                if len(set(got)) != 1:
                    problems.append(f"{key} differs between traced rounds: {got}")
                values[key] = got[0]
    else:
        values["run_s"] = statistics.median(run_s)
        values["setup_s"] = statistics.median(raw * k for raw, k in setups)
        values["peak_rss_mb"] = statistics.median(r[1]["maxrss_kb"] / 1024 for r in rounds)
        values["checks"] = next(iter(tallies))[1]
    summary = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "round_wall_s": wall_s,
        "round_probe_median_s": [statistics.median(p) for p in probes],
        "round_run_s": run_s,
        "setup_wall_s": [raw for raw, _ in setups],
        "setup_scale": [k for _, k in setups],
        "problems": problems,
    }
    if trace:
        (WORK / f"trace-{name}.json").write_text(
            json.dumps({"summary": summary, "layers": layers}, indent=1), encoding="utf-8"
        )
    print(json.dumps(summary), file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return not problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    missing = [
        p
        for p in ("BENCHMARK.json", "src/formality_lab/cli.py", "manifests/core-identities.yaml")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"perfbench: not a formality-lab checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        correct, attempted, failed, metrics = measure(
            ns.workload, ns.seed, ns.seconds, bool(ns.trace)
        )
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
