"""Tests of the benchmark's own pieces at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import speed  # noqa: E402
import steadiness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ Betti


def test_closed_form_betti_truncated_polynomials():
    # Q[x]/(x^m): HH_0 = m, HH_n = m - 1
    assert workloads.closed_form_betti("truncated-poly-3", 5) == [4, 3, 3, 3, 3, 3]
    assert workloads.closed_form_betti("truncated-poly-1", 2) == [2, 1, 1]
    assert workloads.closed_form_betti("dual-numbers", 4) == [2, 1, 1, 1, 1]
    assert workloads.closed_form_betti("truncated-poly-2", 0) == [3]


def test_closed_form_betti_matrix_algebra_is_morita_trivial():
    assert workloads.closed_form_betti("matrix-2x2", 4) == [1, 0, 0, 0, 0]
    assert workloads.closed_form_betti("jets", 2) is None


def test_closed_form_matches_the_program_at_small_degree():
    from formality_lab import hochschild as hh
    from formality_lab.algebras import dual_numbers, mat2_unital, trunc_poly_algebra

    for label, A, top in (
        ("dual-numbers", dual_numbers(), 2),
        ("truncated-poly-2", trunc_poly_algebra(2), 2),
        ("matrix-2x2", mat2_unital(), 1),
    ):
        want = workloads.closed_form_betti(label, top)
        for reduced in (True, False):
            assert hh.homology_betti(A, top, reduced=reduced) == want
            assert hh.cohomology_betti(A, top, reduced=reduced) == want


# ------------------------------------------------------------------ reports


def _job(name, op, status="pass", **data):
    return {"name": name, "op": op, "status": status, "summary": "", "data": data, "witnesses": []}


def _betti_job(algebra, table, status="pass"):
    return _job(
        f"b/{algebra}",
        "betti-agreement",
        status,
        algebra=algebra,
        **{
            "homology-reduced": table,
            "homology-full": table,
            "cohomology-reduced": table,
            "cohomology-full": table,
        },
    )


def test_job_checks_counts_tallies_and_sweeps():
    assert workloads.job_checks(_job("a", "identity-suite", checked=7, failed=0)) == 7
    # sub-sweeps add to the tally
    j = _job("g", "gerstenhaber-suite", checked=2, failed=0, **{"plain-checks": 10, "extended-checks": 3})
    assert workloads.job_checks(j) == 15
    j = _job("l", "linfty-suite", checked=6, **{"module-tuples": 4, "structure-tuples": 5})
    assert workloads.job_checks(j) == 15
    j = _job("t", "trace-defect", **{"pairs-checked": 9, "nonzero-pairs": 2, "star": "s"})
    assert workloads.job_checks(j) == 9
    # three tables compared with the first, degree by degree
    assert workloads.job_checks(_betti_job("matrix-2x2", [1, 0, 0])) == 9
    rows = {"nt=2": [[0, 1, 1, 1]] * 2, "nt=3": [[0, 1, 1, 1]] * 3}
    assert workloads.job_checks(_job("p", "degeneration-probe", rows=rows, degenerate={})) == 5


def test_tally_counts_attempted_and_failed_jobs():
    report = {
        "jobs": [
            _job("a", "hkr-suite", checked=3, failed=0),
            _job("b", "hkr-suite", "fail", checked=3, failed=1),
            _job("c", "mc-star", "fail"),  # a job that raised has no counts
        ]
    }
    assert workloads.tally(report) == (3, 2, 6)


def test_check_report_uses_the_closed_form():
    good = {
        "ledger-hash": "h",
        "jobs": [_betti_job("truncated-poly-3", [4, 3, 3, 3, 3, 3]), _betti_job("matrix-2x2", [1, 0, 0, 0, 0])],
    }
    assert workloads.check_report("homology", good, "h") == []
    assert workloads.check_report("homology", good, "other") != []
    bad = json.loads(json.dumps(good))
    bad["jobs"][1]["data"]["cohomology-full"] = [1, 0, 1, 0, 0]
    assert any("cohomology-full" in p for p in workloads.check_report("homology", bad, "h"))
    short = {"ledger-hash": "h", "jobs": good["jobs"][:1]}
    assert workloads.check_report("homology", short, "h") != []


def test_jobs_that_raised_count_as_failed_without_crashing_the_checks():
    # The CLI turns a job that raised into a `fail` job with empty data.
    raised = [_job("b/t", "betti-agreement", "fail"), _job("p", "degeneration-probe", "fail")]
    assert [workloads.job_checks(j) for j in raised] == [0, 0]
    report = {"ledger-hash": "h", "jobs": raised}
    assert workloads.tally(report) == (2, 2, 0)
    assert workloads.check_report("battery", report, "h") == []
    homology = {
        "ledger-hash": "h",
        "jobs": [_job("b/t", "betti-agreement", "fail"), _betti_job("matrix-2x2", [1, 0, 0, 0, 0])],
    }
    assert workloads.tally(homology) == (2, 1, 15)
    assert workloads.check_report("homology", homology, "h") == []
    # a job that raised still counts as one of the tables asked for
    assert workloads.check_report("homology", {"ledger-hash": "h", "jobs": homology["jobs"][:1]}, "h") != []


def test_check_report_skips_failed_jobs_and_flags_info():
    report = {
        "ledger-hash": "h",
        "jobs": [_job("a", "hkr-suite", "fail"), _job("b", "hkr-suite", "info")],
    }
    assert workloads.check_report("battery", report, "h") == ["b: status info, expected pass"]


# ------------------------------------------------------------------ matrices


def test_star_matrices_are_antisymmetric_on_the_fixed_pattern():
    for seed in range(20):
        mats = workloads.deformation_matrices(seed)
        for name, (n, _, pattern) in workloads.STAR_PATTERNS.items():
            m = mats[name]
            assert len(m) == n and all(len(row) == n for row in m)
            support = {(i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]}
            assert support == set(pattern)
            for i in range(n):
                for j in range(n):
                    assert isinstance(m[i][j], Fraction)
                    assert m[i][j] == -m[j][i]


def test_star_matrices_reproduce_for_a_seed():
    assert workloads.deformation_matrices(7) == workloads.deformation_matrices(7)
    assert workloads.deformation_manifest(7) == workloads.deformation_manifest(7)
    seen = {json.dumps(workloads.deformation_manifest(s)) for s in range(10)}
    assert len(seen) > 1


def test_deformation_manifest_loads_in_the_program(tmp_path):
    from formality_lab.manifest import load_manifest
    from formality_lab.suites import OPS, check_job_args, expand_suite

    path = workloads.manifest_path("deformation", 3, BENCH.parent, tmp_path)
    mf = load_manifest(path, known_ops=OPS, expand=expand_suite)
    for job in mf.jobs:
        check_job_args(job, mf)
    assert [j.op for j in mf.jobs] == ["mc-star", "mc-star", "trace-defect", "hkr-suite"]
    assert mf.model["degree-cap"] == workloads.DEFORMATION_CAP


def test_trace_check_formula_on_a_tiny_product():
    """2 * (nonzero upper entries) nonzero pairs, on 2 variables at cap 1."""
    from formality_lab.algebras import FunctionModel
    from formality_lab.deformation import TraceCandidate, moyal, trace_defect

    m = workloads.star_matrix(2, ((0, 1),), random.Random(0))
    s = moyal(m, 2, FunctionModel(2, 2))
    rep = trace_defect(TraceCandidate(2, {(0, 0): 1}, 2), s, degree=2)
    assert len(rep.witnesses) == 2


# ------------------------------------------------------------------ tracer


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_excludes_wrapped_children():
    clock = _Clock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    leaf_w = t.wrap("leaf", leaf)

    def outer(n):
        clock.now += 0.5
        for _ in range(n):
            leaf_w()
        if n:
            outer_w(n - 1)  # recursion: inclusive time counts once

    outer_w = t.wrap("outer", outer)
    outer_w(2)
    snap = t.snapshot()
    assert snap["leaf.calls"] == 3 and snap["leaf.s"] == 3.0
    assert snap["outer.calls"] == 3
    assert snap["outer.self_s"] == 1.5
    assert snap["outer.s"] == 4.5


def test_replace_everywhere_requires_a_lookup():
    with pytest.raises(RuntimeError):
        tracer.replace_everywhere(object(), None)


# ------------------------------------------------------------------ speed probe and steadiness


def test_sampler_collects_probe_times_until_stopped():
    s = speed.Sampler()
    s.start()
    time.sleep(3.5 * speed.PERIOD_S)
    s.stop()
    assert not s.is_alive()
    n = len(s.samples)
    assert n >= 2 and all(x > 0 for x in s.samples)
    time.sleep(2 * speed.PERIOD_S)
    assert len(s.samples) == n


def test_probe_starts_no_garbage_collection():
    # With a threshold of 1, any allocation the collector tracks would
    # start a collection on the probe's thread.
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info)

    speed.probe()
    threshold = gc.get_threshold()
    gc.callbacks.append(note)
    gc.set_threshold(1)
    try:
        for _ in range(5):
            speed.probe()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(note)
    assert started == []


def test_steadiness_compares_medians_in_the_worse_direction():
    assert steadiness.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert steadiness.worse_by(10.0, 9.0, "higher") == pytest.approx(0.1)

    def run(v, failed=0):
        metrics = {m: {"value": v} for m in ("run_s", "setup_s", "peak_rss_mb", "checks")}
        return {"attempted": 4, "failed": failed, "metrics": metrics}

    spec = {"end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                           {"name": "checks", "better": "higher", "bound": 0.01}]}
    steady = [{"w": [run(v) for v in (10, 10, 10, 10)]}] * 2
    assert steadiness.compare(spec, steady)[1]
    slower = [steady[0], {"w": [run(v) for v in (13, 13, 13, 13)]}]
    assert not steadiness.compare(spec, slower)[1]
    failing = [steady[0], {"w": [run(10, failed=1)] + steady[0]["w"][1:]}]
    assert not steadiness.compare(spec, failing)[1]
