"""Acceptance battery: one test per criterion, exact arithmetic throughout.

Each test drives the shipped check machinery (the same ops the CLI runs)
and pins the observed counts, so a silent trim of any sweep fails here.
"""

import json
import pathlib
from fractions import Fraction
from math import comb

from formality_lab import ahat as ah
from formality_lab import cartan as ct
from formality_lab import hochschild as hh
from formality_lab.algebras import dual_numbers
from formality_lab.cli import main
from formality_lab.manifest import Job, parse_manifest
from formality_lab.poly import Poly
from formality_lab.suites import check_job_args, run_job

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = str(ROOT / "manifests" / "core-identities.yaml")
GOLDEN = ROOT / "tests" / "golden"


def _run(op, args=None):
    mf = parse_manifest("jobs: []\n")
    job = Job(op, op, args or {})
    check_job_args(job, mf)
    return run_job(job, mf)


def _report(n, outcome):
    print(f"criterion {n}: {'PASS' if outcome else 'FAIL'}")
    assert outcome


def test_criterion_01_cochain_identity_suite():
    out = _run("identity-suite")
    _report(1, out.status == "pass" and out.data["checked"] == 1052)


def test_criterion_02_chain_suite():
    out = _run("chain-suite")
    _report(2, out.status == "pass" and out.data["checked"] == 444)


def test_criterion_03_normalized_full_betti_agreement():
    A = dual_numbers()
    tables = [
        hh.homology_betti(A, 4, reduced=True),
        hh.homology_betti(A, 4, reduced=False),
        hh.cohomology_betti(A, 4, reduced=True),
        hh.cohomology_betti(A, 4, reduced=False),
    ]
    out = _run(
        "betti-agreement",
        {"algebra": "dual-numbers", "top": 4, "expect": [2, 1, 1, 1, 1]},
    )
    _report(
        3,
        all(t == [2, 1, 1, 1, 1] for t in tables) and out.status == "pass",
    )


def test_criterion_04_symbol_map_suite():
    out = _run("hkr-suite")
    _report(4, out.status == "pass" and out.data["checked"] == 26)


def test_criterion_05_chains_to_forms_suite():
    out = _run("mu-suite")
    # 294 monomial chains, two identities each
    _report(5, out.status == "pass" and out.data["checked"] == 588)


def test_criterion_06_homotopy_structure_suite():
    out = _run("linfty-suite")
    _report(
        6,
        out.status == "pass"
        and out.data["structure-tuples"] == 509
        and out.data["module-tuples"] == 1379,
    )


def test_criterion_07_flatness_associativity_suite():
    out = _run("mc-star")
    # the Moyal plane sweeps every triple of monomials in n = 2 variables
    # of degree <= cap = 4, so a trimmed sweep shows here
    n, cap = 2, 4
    _report(
        7,
        out.status == "pass"
        and out.data["checked"] == 219
        and out.data["associativity-triples"] == comb(n + cap, n) ** 3 == 3375,
    )


def test_criterion_08_multivector_bracket_suite():
    out = _run("schouten-suite")
    _report(8, out.status == "pass" and out.data["checked"] == 17919)


def test_criterion_09_transport_pipeline():
    maps = _run("pipeline-chain-maps", {"planes": [1, 2]})
    contract = _run("exp-contract", {"max-n": 4})
    flat = _run("flat-transport", {"planes": [1, 2]})
    # the composite's value at 1, asserted directly as well
    direct = True
    for n in (1, 2):
        sd = ah.SymplecticData(n)
        one = ah.SeriesForm.wrap(ct.Form.function(Poly.const(sd.nvars, 1)))
        want = ah.SeriesForm.zero(sd.nvars)
        for j in range(n + 1):
            want._add(-j, -j, Fraction((-1) ** j) * sd.omega_power(j))
        direct = direct and ah.nu0(sd, one) == want
    _report(
        9,
        maps.status == "pass"
        and maps.data["pairs-checked"] == 1056
        and contract.status == "pass"
        and contract.data["checked"] == 12
        and flat.status == "pass"
        and flat.data["checked"] == 94
        and direct,
    )


def test_criterion_10_flat_class_expansion():
    out = _run("ahat-flat", {"planes": [1, 2], "nt-values": [2, 3, 4]})
    rep = ah.ahat_flat(2, 3)
    _report(
        10,
        out.status == "pass"
        and rep.ok
        and rep.klass == {(0, 0): Fraction(1)}
        and all(ah.deRham_d(p) == rep.value.c[k]
                for k, p in rep.primitives.items()),
    )


def test_criterion_11_degeneration_probe():
    import test_ahat

    out = _run(
        "degeneration-probe",
        {"coefficient-cap": 2, "nt-values": [2, 3, 4], "expect-degenerate": True},
    )
    std = ct.MultiVector(2, 2, {(0, 1): Poly.const(2, 1)})
    oracle_ok = True
    stable = True
    for nt in (2, 3, 4):
        table = ah.spectral_degeneration_probe(std, 2, nt)
        oracle = test_ahat.probe_oracle(std, 2, nt)
        oracle_ok = oracle_ok and {
            r.grade: r.homology for r in table.rows
        } == oracle
        rows = [[r.grade, r.dim, r.homology, r.predicted] for r in table.rows]
        stable = stable and rows[0] == [0, 6, 1, 1] and rows[-1] == [
            2 * nt, 6, 3, 3
        ] and all(r[1:] == [12, 4, 4] for r in rows[1:-1])
    _report(11, out.status == "pass" and oracle_ok and stable)


def test_criterion_12_graded_product_bracket_suite():
    out = _run("gerstenhaber-suite")
    _report(
        12,
        out.status == "pass"
        and out.data["plain-checks"] == 193640
        and out.data["extended-checks"] == 42396,
    )


def test_criterion_13_deterministic_reports(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc1 = main(["run", MANIFEST, "--format", "structured", "--out", str(first)])
    rc2 = main(
        ["run", MANIFEST, "--format", "structured", "--jobs", "4",
         "--out", str(second)],
    )
    identical = first.read_bytes() == second.read_bytes()
    golden = first.read_bytes() == (GOLDEN / "core-identities.json").read_bytes()
    doc = json.loads(first.read_text())
    all_pass = doc["counts"]["fail"] == 0 and doc["counts"]["pass"] == len(
        doc["jobs"]
    )
    _report(13, rc1 == 0 and rc2 == 0 and identical and golden and all_pass)


def test_demo_report_matches_golden(tmp_path):
    out = tmp_path / "demo.json"
    rc = main(
        ["run", str(ROOT / "manifests" / "demo.yaml"), "--format", "structured",
         "--out", str(out)],
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "demo.json").read_bytes()


def test_deformation_report_matches_golden(tmp_path):
    # the benchmark's seed-5 deformation manifest, checked in beside its report
    out = tmp_path / "deformation-5.json"
    rc = main(
        ["run", str(GOLDEN / "deformation-5.yaml"), "--format", "structured",
         "--out", str(out)],
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "deformation-5.json").read_bytes()


def test_homology_report_matches_golden(tmp_path):
    # the benchmark's homology manifest: Betti tables in all four flavors
    out = tmp_path / "homology.json"
    rc = main(
        ["run", str(ROOT / "perfbench" / "homology.yaml"), "--format", "structured",
         "--out", str(out)],
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "homology.json").read_bytes()
