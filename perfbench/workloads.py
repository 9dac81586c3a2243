"""The benchmark's workloads: the manifest each one runs and the checks its
report must pass, made apart from the program.

- ``battery``: ``manifests/core-identities.yaml`` as shipped.  Every job
  must pass; each job is itself a sweep of identities the mathematics
  requires.
- ``homology``: Betti tables in all four complex flavors of algebras whose
  Hochschild (co)homology has a closed form.  Dominated by ``rank_kernel``.
- ``deformation``: seeded constant star products on a fixed pattern of
  nonzeros, their associativity and trace defect, and the symbol-map
  suite.  Dominated by ``star_series`` and ``PolyDiffOperator.apply``.
"""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("battery", "homology", "deformation")

# Deformation matrices: (variables, t-order, upper-triangle nonzeros).  The
# seed picks only the entries, so the work hardly depends on it.  Pattern
# star4 is a symplectic form on Q^4; any nonzero 3x3 antisymmetric matrix
# has rank 2.
DEFORMATION_CAP = 2
STAR_PATTERNS = {
    "star4": (4, 4, ((0, 1), (2, 3))),
    "star3": (3, 3, ((0, 1), (1, 2))),
}
TRACE_STAR = "star4"

# What homology.yaml asks for: algebra -> top degree.
HOMOLOGY_TABLES = {"truncated-poly-3": 5, "matrix-2x2": 4}


def closed_form_betti(algebra, top):
    """Hochschild Betti numbers in degrees 0..top, from the mathematics.

    dim HH_0(Q[x]/(x^m)) = m and dim HH_n = m - 1 for n >= 1, for homology
    and cohomology alike (the dual numbers are m = 2).  M_2(Q) is Morita
    equivalent to Q, so its table is 1, 0, 0, ....  None when unknown.
    """
    if algebra == "dual-numbers":
        m = 2
    elif algebra.startswith("truncated-poly-"):
        m = int(algebra[len("truncated-poly-"):]) + 1
    elif algebra == "matrix-2x2":
        return [1] + [0] * top
    else:
        return None
    return [m] + [m - 1] * top


def star_matrix(n, pattern, rng):
    """Antisymmetric n x n matrix of Fractions, nonzero exactly on
    ``pattern`` (upper-triangle positions) and its mirror."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in pattern:
        v = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
        if rng.random() < 0.5:
            v = -v
        m[i][j], m[j][i] = v, -v
    return m


def deformation_matrices(seed):
    rng = random.Random(seed)
    return {
        name: star_matrix(n, pattern, rng)
        for name, (n, _, pattern) in STAR_PATTERNS.items()
    }


def deformation_manifest(seed):
    """The deformation manifest as a dict; JSON is valid YAML."""
    objects = {}
    for name, matrix in deformation_matrices(seed).items():
        objects[name] = {
            "kind": "star-product",
            "nt": STAR_PATTERNS[name][1],
            "matrix": [[str(v) for v in row] for row in matrix],
        }
    nvars = STAR_PATTERNS[TRACE_STAR][0]
    objects["origin"] = {
        "kind": "trace",
        "vars": nvars,
        "coeffs": {",".join(["0"] * nvars): 1},
    }
    jobs = [{"op": "mc-star", "name": f"mc-{name}", "star": name} for name in STAR_PATTERNS]
    jobs.append(
        {
            "op": "trace-defect",
            "name": "trace-origin",
            "trace": "origin",
            "star": TRACE_STAR,
            "expect": "nonzero",
        }
    )
    jobs.append({"op": "hkr-suite", "name": "hkr"})
    return {"model": {"degree-cap": DEFORMATION_CAP}, "objects": objects, "jobs": jobs}


def manifest_path(name, seed, root, workdir):
    """Path of the manifest the program runs for workload ``name``; the
    deformation manifest is generated into ``workdir``."""
    if name == "battery":
        return root / "manifests" / "core-identities.yaml"
    if name == "homology":
        return HERE / "homology.yaml"
    if name == "deformation":
        path = Path(workdir) / f"deformation-{seed}.yaml"
        path.write_text(json.dumps(deformation_manifest(seed), indent=1), encoding="utf-8")
        return path
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ reports

_COUNT_SUFFIXES = ("-checks", "-checked", "-tuples")


def job_checks(job):
    """Identity checks one structured-report job says it made.

    Tallied checks (``checked``) plus every sweep size the job reports
    (keys ending in -checks, -checked or -tuples); a Betti agreement
    compares three tables with the first degree by degree, and a probe
    compares each row of its rank tables with the prediction.  A job that
    raised has empty ``data``, so it counts no checks.
    """
    data = job["data"]
    n = 0
    for key, v in data.items():
        if (key == "checked" or key.endswith(_COUNT_SUFFIXES)) and type(v) is int:
            n += v
    if job["op"] == "betti-agreement":
        n += 3 * len(data.get("homology-reduced", ()))
    elif job["op"] == "degeneration-probe":
        n += sum(len(rows) for rows in data.get("rows", {}).values())
    return n


def tally(report):
    """(attempted, failed, checks) of one structured report."""
    jobs = report["jobs"]
    failed = sum(1 for j in jobs if j["status"] == "fail")
    return len(jobs), failed, sum(job_checks(j) for j in jobs)


def _betti_problems(job):
    data = job["data"]
    top = len(data["homology-reduced"]) - 1
    want = closed_form_betti(data["algebra"], top)
    if want is None:
        return []
    return [
        f"{job['name']}: {flavor} = {data[flavor]}, closed form {want}"
        for flavor in ("homology-reduced", "homology-full", "cohomology-reduced", "cohomology-full")
        if data[flavor] != want
    ]


def _trace_problems(job):
    """Only odd t-orders survive in a star commutator of a constant
    antisymmetric product, and with degree cap 2 at the origin only order
    1 on linear monomials does: x_i * x_j - x_j * x_i = 2 t pi_ij.  So the
    nonzero pairs are the ordered pairs with pi_ij != 0."""
    n, _, pattern = STAR_PATTERNS[TRACE_STAR]
    want = {
        "pairs-checked": comb(n + DEFORMATION_CAP, n) ** 2,
        "nonzero-pairs": 2 * len(pattern),
        "bracket-nonzero-pairs": 2 * len(pattern),
    }
    return [
        f"{job['name']}: {key} = {job['data'].get(key)}, expected {v}"
        for key, v in want.items()
        if job["data"].get(key) != v
    ]


def check_report(name, report, ledger_hash):
    """Problems with a report of workload ``name``; empty when correct.

    Jobs with status ``fail`` are counted as failed operations by
    ``tally`` and are not checked further here: a job that raised has
    empty ``data``.
    """
    problems = []
    if report.get("ledger-hash") != ledger_hash:
        problems.append(f"ledger hash {report.get('ledger-hash')} != {ledger_hash}")
    jobs = [j for j in report["jobs"] if j["status"] != "fail"]
    if name == "homology":
        asked = [j["name"] for j in report["jobs"] if j["op"] == "betti-agreement"]
        tables = {
            j["data"]["algebra"]: len(j["data"]["homology-reduced"]) - 1
            for j in jobs
            if j["op"] == "betti-agreement"
        }
        if len(asked) != len(HOMOLOGY_TABLES) or any(
            HOMOLOGY_TABLES.get(algebra) != top for algebra, top in tables.items()
        ):
            problems.append(f"homology jobs {asked} with tables {tables}, expected {HOMOLOGY_TABLES}")
    for job in jobs:
        if job["status"] != "pass":
            problems.append(f"{job['name']}: status {job['status']}, expected pass")
        if job["op"] == "betti-agreement":
            problems.extend(_betti_problems(job))
        elif job["op"] == "trace-defect" and name == "deformation":
            problems.extend(_trace_problems(job))
    return problems
