"""Manifest loading, the op registry, report rendering, and exit codes."""

import json
import re
from fractions import Fraction
from itertools import product

import pytest

from formality_lab import ahat as ah
from formality_lab import conventions, suites
from formality_lab.algebras import FunctionModel
from formality_lab.cartan import Form, MultiVector
from formality_lab.cli import _execute, main
from formality_lab.manifest import (
    Job,
    ManifestError,
    as_fraction,
    parse_manifest,
)
from formality_lab.poly import Poly
from formality_lab.report import canonical
from formality_lab.suites import OPS, _light_tuples, expand_suite


# -- exact numbers in manifests ---------------------------------------------------

def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3, "x") == Fraction(3)
    assert as_fraction("-2/7", "x") == Fraction(-2, 7)
    assert as_fraction(" 5 ", "x") == Fraction(5)


def test_as_fraction_rejects_inexact_and_junk():
    for bad in (0.5, True, "1.5.2", "a/b", None, [1]):
        with pytest.raises(ManifestError):
            as_fraction(bad, "x")


def test_canonical_renders_fractions_and_tuples():
    tree = canonical({"a": Fraction(1, 3), "b": (1, 2), 3: None})
    assert tree == {"a": "1/3", "b": [1, 2], "3": None}
    with pytest.raises(TypeError):
        canonical(0.25)


# -- manifest parsing --------------------------------------------------------------

def test_parse_error_carries_position():
    with pytest.raises(ManifestError) as err:
        parse_manifest("model:\n  vars: [1\n", source="m.yaml")
    assert err.value.source == "m.yaml"
    assert err.value.line is not None


def test_unknown_op_and_unknown_argument_are_named():
    with pytest.raises(ManifestError, match="unknown op 'frobnicate'"):
        parse_manifest("jobs:\n  - op: frobnicate\n", known_ops=OPS)
    mf = parse_manifest(
        "jobs:\n  - op: betti\n    name: j\n    bogus: 1\n", known_ops=OPS
    )
    with pytest.raises(ManifestError, match="'bogus'"):
        from formality_lab.suites import check_job_args

        check_job_args(mf.jobs[0], mf)


def test_duplicate_job_names_rejected():
    text = "jobs:\n  - {op: betti, name: same}\n  - {op: betti, name: same}\n"
    with pytest.raises(ManifestError, match="duplicate"):
        parse_manifest(text, known_ops=OPS)


@pytest.mark.parametrize(
    "text, key, line, column",
    [
        ("jobs:\n  - {op: betti, name: j, top: 9, top: 1}\n", "top", 2, 34),
        (
            "objects:\n  t:\n    kind: trace\n    vars: 2\n"
            '    coeffs: {"0,0": 1, "0,0": 5}\n',
            "0,0",
            5,
            24,
        ),
    ],
)
def test_duplicate_yaml_keys_rejected_at_the_repeat(tmp_path, capsys, text, key, line, column):
    with pytest.raises(ManifestError, match=f"duplicate key '{key}'") as err:
        parse_manifest(text, source="m.yaml", known_ops=OPS)
    assert (err.value.line, err.value.column) == (line, column)
    path = _write(tmp_path, text)
    assert main(["run", path]) == 2
    assert f"{path}:{line}:{column}: duplicate key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("jobs:\n  - {name: j}\n", "jobs[0]: a job needs an 'op'"),
        ("jobs:\n  - {op: nope}\n", "jobs[0]: unknown op 'nope'"),
        ("jobs:\n  - {op: betti, name: x}\n  - {op: betti, name: x}\n", "duplicate job name 'x'"),
        ("jobs:\n  - {op: betti, name: j, top: -1}\n", "job 'j': 'top' must be an integer >= 0"),
        (
            "jobs:\n  - {op: exp-contract, name: q, weights: [q]}\n",
            "job 'q': unknown exp-contract argument 'weights' (have none)",
        ),
        ("model: {vars: 0}\n", "model: 'vars' must be an integer >= 1"),
        ("objects:\n  t: {kind: trace, coef: 1}\n", "objects.t: unknown trace field 'coef'"),
        ("jobs: {a: 1}\n", "jobs must be a list"),
    ],
)
def test_every_exit_two_error_names_the_manifest_file(tmp_path, capsys, text, message):
    path = _write(tmp_path, text, name="bad.yaml")
    assert main(["run", path]) == 2
    assert f"formality-lab: {path}: {message}" in capsys.readouterr().err
    if "job '" not in message:  # the others are raised while the text parses
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, source="bad.yaml", known_ops=OPS)
        assert err.value.source == "bad.yaml"
        assert str(err.value).startswith(f"bad.yaml: {message}")


def test_yaml_merge_keys_may_be_overridden():
    text = "jobs:\n  - &b {op: betti, name: j, top: 2}\n  - {<<: *b, name: k}\n"
    mf = parse_manifest(text, known_ops=OPS)
    assert [job.name for job in mf.jobs] == ["j", "k"]
    assert mf.jobs[1].args == {"top": 2}


def test_model_caps_validated(tmp_path, capsys):
    with pytest.raises(ManifestError, match="unknown cap"):
        parse_manifest("model: {depth: 3}\n")
    # no op reads a series window or an arity cap, so the model has neither
    for key in ("u-window: [-2, 2]", "arity-cap: 4"):
        rc = main(["run", _write(tmp_path, f"model: {{{key}}}\n")])
        assert rc == 2
        assert "unknown cap" in capsys.readouterr().err
    mf = parse_manifest("model: {vars: 3}\n")
    assert mf.model == {"vars": 3, "degree-cap": 4, "nt": 4}  # defaults fill in


def test_multivector_object_built_exactly():
    text = (
        "objects:\n"
        "  pi:\n"
        "    kind: multivector\n"
        "    vars: 2\n"
        "    degree: 2\n"
        "    terms:\n"
        '      "0,1": {"1,0": "3/2"}\n'
    )
    mf = parse_manifest(text)
    kind, pi = mf.objects["pi"]
    assert kind == "multivector"
    assert pi == MultiVector(2, 2, {(0, 1): Poly.monomial(2, (1, 0), Fraction(3, 2))})


def test_star_product_must_be_antisymmetric():
    text = (
        "objects:\n"
        "  s:\n"
        "    kind: star-product\n"
        "    matrix: [[0, 1], [1, 0]]\n"
    )
    with pytest.raises(ManifestError, match="antisymmetric"):
        parse_manifest(text)


def test_trace_object_validates_jet_keys():
    text = (
        "objects:\n"
        "  t:\n"
        "    kind: trace\n"
        "    vars: 2\n"
        '    coeffs: {"0,0,0": 1}\n'
    )
    with pytest.raises(ManifestError, match="needs 2 entries"):
        parse_manifest(text)


def test_suite_expansion_covers_the_battery():
    jobs = expand_suite({}, None, "core")
    names = [name for name, _, _ in jobs]
    assert names[0] == "core/identities"
    assert "core/probe" in names and "core/gerstenhaber" in names
    assert len(names) == 14
    ops = {op for _, op, _ in jobs}
    assert ops <= set(OPS)
    with pytest.raises(ManifestError, match="unknown suite"):
        expand_suite({"suite": "everything"}, None, "core")


# -- CLI runs ----------------------------------------------------------------------

FAST = (
    "jobs:\n"
    "  - {op: betti, name: a, algebra: dual-numbers, top: 2,"
    " expect: [2, 1, 1]}\n"
    "  - {op: exp-contract, name: b}\n"
    '  - {op: betti, name: c, algebra: matrix-2x2, top: 1, kind: cohomology}\n'
)


def _write(tmp_path, text, name="m.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_exit_zero_and_report_shape(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, FAST), "--format", "structured"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["ledger-hash"] == conventions.ledger_hash()
    assert [j["name"] for j in doc["jobs"]] == ["a", "b", "c"]
    assert [j["status"] for j in doc["jobs"]] == ["pass", "pass", "info"]
    assert doc["jobs"][2]["data"]["betti"] == [1, 0]
    assert out.endswith("}\n")


def test_structured_output_is_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, FAST)
    main(["run", path, "--format", "structured"])
    first = capsys.readouterr().out
    main(["run", path, "--format", "structured"])
    second = capsys.readouterr().out
    assert first == second


def test_parallel_assembly_matches_serial(tmp_path, capsys):
    path = _write(tmp_path, FAST)
    main(["run", path, "--format", "structured"])
    serial = capsys.readouterr().out
    main(["run", path, "--format", "structured", "--jobs", "3"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    path = _write(tmp_path, FAST)
    dest = tmp_path / "report.json"
    rc = main(["run", path, "--format", "structured", "--out", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["counts"]["pass"] == 2


def test_failing_expectation_exits_one_with_witness(tmp_path, capsys):
    text = (
        "jobs:\n"
        "  - {op: betti, name: bad, algebra: dual-numbers, top: 1,"
        " expect: [9, 9]}\n"
    )
    rc = main(["run", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "\u2717" in out
    assert "computed [2, 1], expected [9, 9]" in out


def test_unresolved_reference_exits_two(tmp_path, capsys):
    text = "jobs:\n  - {op: mc-star, name: j, star: ghost}\n"
    rc = main(["run", _write(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "ghost" in err


def test_parse_error_exits_two_with_position(tmp_path, capsys):
    path = _write(tmp_path, "jobs: [\n")
    rc = main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "m.yaml:" in err


def test_missing_file_and_usage_errors_exit_two(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert main(["run"]) == 2
    assert main(["explode"]) == 2
    capsys.readouterr()


def test_empty_job_list_passes(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "jobs: []\n"), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["jobs"] == [] and doc["counts"]["fail"] == 0


def test_job_runtime_error_becomes_failing_outcome(tmp_path, capsys):
    # a quadratic-coefficient bivector is rejected by the probe's cap
    # analysis; the job must fail with the reason, not crash the run
    text = (
        "objects:\n"
        "  q:\n"
        "    kind: multivector\n"
        "    vars: 2\n"
        "    degree: 2\n"
        '    terms: {"0,1": {"2,0": 1}}\n'
        "jobs:\n"
        "  - {op: degeneration-probe, name: j, multivector: q,"
        " nt-values: [2]}\n"
    )
    rc = main(["run", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "refused" in out and "cap" in out


def test_probe_job_refuses_a_non_poisson_bivector(tmp_path, capsys):
    # [pi, pi] != 0 makes (d + t L)^2 = t^2 L^2 nonzero; nt = 2 truncates
    # the t^2 term away, nt = 3 keeps it and the probe refuses the complex
    text = (
        "objects:\n"
        "  p:\n"
        "    kind: multivector\n"
        "    vars: 3\n"
        "    degree: 2\n"
        '    terms: {"0,1": {"0,0,0": 1}, "1,2": {"0,1,0": 1}}\n'
        "jobs:\n"
        "  - {op: degeneration-probe, name: j, multivector: p, nt-values: [2, 3]}\n"
    )
    rc = main(["run", _write(tmp_path, text), "--format", "structured"])
    (job,) = json.loads(capsys.readouterr().out)["jobs"]
    assert rc == 1
    assert (job["status"], job["summary"]) == ("fail", "probe of p refused at nt=3")
    assert job["witnesses"] == [
        "d^2 != 0: the echelon row of d_2 at pivot column 1 times d_3 is -1 at column 31"
    ]


def test_raised_job_names_the_package_frame(tmp_path, capsys, monkeypatch):
    # the witness carries module.function:line of the innermost package
    # frame, and no file path, so the report is the same on every machine
    def negative_exponent(values):
        return Poly(1, {(-1,): 1})

    def bare(values):
        raise ArithmeticError("boom")

    path = _write(tmp_path, "jobs:\n  - {op: betti, name: b}\n")
    for fn, error, frame in (
        (negative_exponent, "ValueError", r"formality_lab\.poly\.__init__"),
        (bare, "ArithmeticError", r"formality_lab\.suites\.run_job"),
    ):
        monkeypatch.setattr(OPS["betti"], "fn", fn)
        rc = main(["run", path, "--format", "structured"])
        (job,) = json.loads(capsys.readouterr().out)["jobs"]
        assert rc == 1 and job["status"] == "fail"
        assert job["summary"] == f"betti: {error}"
        (witness,) = job["witnesses"]
        assert re.fullmatch(rf"{error} at {frame}:\d+: .+", witness)
        assert "/" not in witness


TRACES = (
    "model: {vars: 2, degree-cap: 4, nt: 4}\n"
    "objects:\n"
    '  moyal-half: {kind: star-product, matrix: [[0, "1/2"], ["-1/2", 0]]}\n'
    '  origin-1: {kind: trace, nt: 1, coeffs: {"0,0": 1}}\n'
    '  origin: {kind: trace, coeffs: {"0,0": 1}}\n'
    '  jet: {kind: trace, coeffs: {"0,0": 1, "2,2": "1/4"}}\n'
    "jobs:\n"
    "  - {op: trace-defect, name: o1, trace: origin-1, star: moyal-half, max-degree: 3}\n"
    "  - {op: trace-defect, name: o4, trace: origin, star: moyal-half, max-degree: 3}\n"
    "  - {op: trace-defect, name: jet, trace: jet, star: moyal-half, max-degree: 3}\n"
)


def test_trace_witnesses_and_orders_above_the_trace_cap(tmp_path, capsys):
    # on monomials of degree <= 3 the origin trace sees the commutator at
    # t^1 (2 pairs) and at t^3 (4 more); a trace with nt 1 drops t^3
    rc = main(["run", _write(tmp_path, TRACES), "--format", "structured"])
    jobs = {j["name"]: j for j in json.loads(capsys.readouterr().out)["jobs"]}
    assert rc == 0
    assert {name: j["status"] for name, j in jobs.items()} == dict.fromkeys(jobs, "info")
    assert jobs["o1"]["data"]["nonzero-pairs"] == 2
    assert jobs["o4"]["data"]["nonzero-pairs"] == 6
    assert jobs["o1"]["witnesses"][0] == (
        "tau(x^[0, 1] * x^[1, 0] - x^[1, 0] * x^[0, 1]) = FormalSeries(-1*t^1*u^0)"
    )
    assert (
        "tau(x^[0, 3] * x^[3, 0] - x^[3, 0] * x^[0, 3]) = "
        "FormalSeries(-9*t^1*u^0 + -3/2*t^3*u^0)"
    ) in jobs["jet"]["witnesses"]


def test_trace_in_other_variables_is_refused_at_load(tmp_path, capsys):
    # a 3-variable trace reads 0 on every 2-variable commutator, so its
    # defect would pass as zero; the manifest is refused before any job runs
    text = TRACES.split("  origin-1:")[0] + (
        '  t3: {kind: trace, vars: 3, coeffs: {"0,0,0": 1}}\n'
        "jobs:\n"
        "  - {op: trace-defect, name: t3, trace: t3, star: moyal-half, expect: zero}\n"
    )
    rc = main(["run", _write(tmp_path, text), "--format", "structured"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert (
        "job 't3': trace 't3' is in 3 variables, star product 'moyal-half' in 2"
    ) in err


def test_series_window_overflow_fails_the_job(monkeypatch):
    # a job that takes a series out of its window: the overflow is a job
    # failure, not a manifest error
    def overflow(values):
        ah.SeriesForm.zero(2)._add(-5, 0, Form.function(Poly.const(2, 1)))

    monkeypatch.setattr(OPS["flat-transport"], "fn", overflow)
    job = Job("f", "flat-transport", {})
    job.values = {}
    out = _execute(job, None)
    assert out.status == "fail"
    assert out.summary == "flat-transport: WindowOverflow"
    (witness,) = out.witnesses
    frame = r"formality_lab\.ahat\._add:\d+"
    assert re.fullmatch(rf"WindowOverflow at {frame}: t\^-5 u\^0 left the window", witness)


@pytest.mark.parametrize("weight", ["t", "t/u"])
def test_exp_contract_parts_above_the_t_window_load_and_drop(
    tmp_path, capsys, monkeypatch, weight
):
    # z^5 with z = t or t/u lies above the t-window's top, so the ideal
    # drops it whatever its u-weight: no part raises, and the identity holds
    monkeypatch.setattr(suites, "_EXP_MAX_N", 5)
    monkeypatch.setattr(suites, "_WEIGHTS", (weight,))
    text = "jobs:\n  - {op: exp-contract, name: e}\n"
    rc = main(["run", _write(tmp_path, text), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [(j["name"], j["status"], j["data"]["checked"]) for j in doc["jobs"]] == [
        ("e", "pass", 5)
    ]


@pytest.mark.parametrize(
    "second, message",
    [
        ("{op: betti, name: q, top: -1}", "'top' must be an integer >= 0"),
        ("{op: betti-agreement, name: q, top: -1}", "'top' must be an integer >= 0"),
        # reduced dual numbers have R = 1: the size bound alone would admit any top
        (
            "{op: betti, name: q, algebra: dual-numbers, top: 1000000000}",
            "'top' must be an integer >= 0 and <= 14",
        ),
        (
            "{op: betti, name: q, algebra: dual-numbers, top: 15}",
            "'top' must be an integer >= 0 and <= 14",
        ),
        ("{op: betti, name: q, reduced: 1}", "'reduced' must be true or false"),
        ("{op: betti, name: q, kind: torsion}", "kind must be homology or cohomology"),
        ("{op: betti, name: q, expect: [1, true]}", "expect must be a list of integers"),
        ("{op: betti-agreement, name: q, expect: 3}", "expect must be a list of integers"),
    ],
)
def test_bad_betti_value_is_refused_before_the_first_job(
    tmp_path, capsys, monkeypatch, second, message
):
    ran = []
    monkeypatch.setattr(OPS["betti"], "fn", lambda *a: ran.append(a))
    text = (
        "jobs:\n"
        "  - {op: betti, name: first, algebra: dual-numbers, top: 1}\n"
        f"  - {second}\n"
    )
    path = _write(tmp_path, text)
    rc = main(["run", path])
    assert rc == 2
    assert f"formality-lab: {path}: job 'q': {message}" in capsys.readouterr().err
    assert ran == []


OBJECTS = (
    "objects:\n"
    "  v: {kind: multivector, degree: 1}\n"
    "  s: {kind: star-product, matrix: [[0, 1], [-1, 0]]}\n"
    "  t: {kind: trace}\n"
    "  j: {kind: algebra, preset: jets, vars: 3, cap: 3}\n"
)


@pytest.mark.parametrize(
    "second, message",
    [
        (
            "{op: betti-agreement, name: q, algebra: matrix-2x2, top: 14}",
            "top 14 needs 4 x 4^15 chains of 'matrix-2x2' in degree 15, above the bound 65536",
        ),
        (
            "{op: betti, name: q, algebra: j, top: 4, reduced: false}",
            "top 4 needs 20 x 20^5 chains of 'j' in degree 5, above the bound 65536",
        ),
        (
            "{op: betti, name: q, algebra: truncated-poly-3, top: 8}",
            "top 8 needs 4 x 3^9 chains of 'truncated-poly-3' in degree 9, above the bound 65536",
        ),
        (
            "{op: degeneration-probe, name: q, nt-values: [2, 5]}",
            "nt-values must be a list of integers >= 1 and <= 4",
        ),
        ("{op: degeneration-probe, name: q, multivector: v}", "'v' must have degree 2"),
        (
            "{op: degeneration-probe, name: q, expect-degenerate: 1}",
            "'expect-degenerate' must be true or false",
        ),
        ("{op: trace-defect, name: q, star: s}", "missing 'trace'"),
        # the model's degree cap, 4, is the star product's
        (
            "{op: trace-defect, name: q, trace: t, star: s, max-degree: 5}",
            "max-degree 5 is above the degree cap 4 of star product 's'",
        ),
        (
            "{op: trace-defect, name: q, trace: t, star: s, expect: maybe}",
            "expect must be zero or nonzero",
        ),
        ("{op: mc-star, name: q, star: ghost}", "no object named 'ghost'"),
        ("{op: mc-star, name: q, star: t}", "'t' is a trace, expected a star-product"),
        # arguments that became module constants: refused even at their
        # old default
        *(
            (f"{{op: {op}, name: q, {key}: {value}}}", f"unknown {op} argument '{key}'")
            for op, key, value in (
                ("identity-suite", "algebra", "dual-numbers"),
                ("identity-suite", "jacobi-samples", 20),
                ("hkr-suite", "closed-samples", 20),
                ("mu-suite", "max-degree", 3),
                ("schouten-suite", "bivector-samples", 10),
                ("pipeline-chain-maps", "planes", [1, 2]),
                ("pipeline-chain-maps", "coefficient-cap", 2),
                ("exp-contract", "max-n", 4),
                ("exp-contract", "weights", "[t, u, t/u]"),
                ("flat-transport", "planes", [1, 2]),
                ("ahat-flat", "planes", [1, 2]),
                ("ahat-flat", "nt-values", [2, 3, 4]),
                ("degeneration-probe", "coefficient-cap", 2),
            )
        ),
    ],
)
def test_bad_value_of_any_op_is_refused_before_the_first_job(
    tmp_path, capsys, monkeypatch, second, message
):
    ran = []
    monkeypatch.setattr(OPS["betti"], "fn", lambda *a: ran.append(a))
    text = OBJECTS + (
        "jobs:\n"
        "  - {op: betti, name: first, algebra: dual-numbers, top: 1}\n"
        f"  - {second}\n"
    )
    path = _write(tmp_path, text)
    rc = main(["run", path])
    assert rc == 2
    assert f"formality-lab: {path}: job 'q': {message}" in capsys.readouterr().err
    assert ran == []


@pytest.mark.parametrize(
    "job, key, value",
    [
        # the probe's series caps end at 4, the largest nt the flat class uses
        ("{op: degeneration-probe, name: q, nt-values: [4]}", "nt-values", [4]),
        # the model's degree cap, 4, is the star product's
        ("{op: trace-defect, name: q, trace: t, star: s, max-degree: 4}", "max-degree", 4),
    ],
)
def test_work_size_at_its_maximum_loads(job, key, value):
    from formality_lab.suites import check_job_args

    mf = parse_manifest(OBJECTS + f"jobs:\n  - {job}\n", known_ops=OPS)
    check_job_args(mf.jobs[0], mf)
    assert mf.jobs[0].values[key] == value


@pytest.mark.parametrize(
    "text, message",
    [
        ("model: [1]\n", "model must be a mapping"),
        ("objects: [1]\n", "objects must be a mapping"),
        (
            "objects:\n  pi: {kind: multivector, degree: 1, terms: [1]}\n",
            "objects.pi: terms must be a mapping",
        ),
        (
            "objects:\n  t: {kind: trace, coeffs: [1]}\n",
            "objects.t: coeffs must be a mapping",
        ),
    ],
)
def test_section_that_is_not_a_mapping_exits_two(tmp_path, capsys, text, message):
    rc = main(["run", _write(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{kind: trace, coef: {"0,0": 1}}', "unknown trace field 'coef'"),
        (
            '{kind: multivector, degree: 2, term: {"0,1": 1}}',
            "unknown multivector field 'term'",
        ),
        (
            "{kind: star-product, matrix: [[0, 1], [-1, 0]], order: 2}",
            "unknown star-product field 'order'",
        ),
        (
            "{kind: algebra, preset: dual-numbers, cap: 3}",
            "unknown dual-numbers algebra field 'cap'",
        ),
        (
            "{kind: algebra, preset: jets, degree: 3}",
            "unknown jets algebra field 'degree'",
        ),
    ],
)
def test_unknown_object_field_is_named_with_its_kind(spec, message):
    with pytest.raises(ManifestError, match=message):
        parse_manifest(f"objects:\n  o: {spec}\n")


@pytest.mark.parametrize(
    "spec",
    [
        '{kind: multivector, degree: 2, terms: {"0,1": 1, "0, 1": 2}}',
        '{kind: trace, coeffs: {"0,0": 1, "0, 0": 2}}',
        '{kind: multivector, degree: 1, terms: {"0": {"1,0": 1, "1, 0": 2}}}',
    ],
)
def test_index_key_that_repeats_once_parsed_is_refused(spec):
    with pytest.raises(ManifestError, match="index key '(0|1), (0|1)' repeats"):
        parse_manifest(f"objects:\n  o: {spec}\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("{kind: algebra, preset: truncated-poly, cap: -1}", "'cap' must be an integer >= 0"),
        ("{kind: algebra, preset: jets, cap: -1}", "'cap' must be an integer >= 0"),
        ("{kind: algebra, preset: jets, vars: 0}", "'vars' must be an integer >= 1"),
    ],
)
def test_object_integer_out_of_bounds_exits_two(tmp_path, capsys, spec, message):
    text = f"objects:\n  a: {spec}\njobs:\n  - {{op: betti, name: j, algebra: a}}\n"
    rc = main(["run", _write(tmp_path, text)])
    assert rc == 2
    assert f"objects.a: {message}" in capsys.readouterr().err


def test_empty_star_product_matrix_exits_two(tmp_path, capsys):
    # a 0-variable product would pass every mc-star check vacuously
    text = (
        "objects:\n  s: {kind: star-product, matrix: []}\n"
        "jobs:\n  - {op: mc-star, name: j, star: s}\n"
    )
    rc = main(["run", _write(tmp_path, text)])
    assert rc == 2
    assert "objects.s: matrix must have at least one row" in capsys.readouterr().err


def test_job_values_are_checked_resolved_and_defaulted():
    from formality_lab.suites import check_job_args

    text = (
        "objects:\n  a: {kind: algebra, preset: jets, vars: 1}\n"
        "jobs:\n  - {op: betti, name: j, algebra: a}\n"
    )
    mf = parse_manifest(text, known_ops=OPS)
    check_job_args(mf.jobs[0], mf)
    values = mf.jobs[0].values
    assert values["algebra"] == ("a", mf.objects["a"][1])
    assert [values[k] for k in ("top", "reduced", "kind", "expect")] == [
        4, True, "homology", None
    ]


def test_top_maximum_admits_full_dual_numbers_at_the_size_bound():
    # 2 x 2^15 = 65536 chains in degree 15: at the bound, so admitted (not run)
    from formality_lab.suites import check_job_args

    for job in ("{op: betti, reduced: false", "{op: betti-agreement"):
        text = f"jobs:\n  - {job}, name: j, algebra: dual-numbers, top: 14}}\n"
        mf = parse_manifest(text, known_ops=OPS)
        check_job_args(mf.jobs[0], mf)
        assert mf.jobs[0].values["top"] == 14


def test_mu_suite_passes_above_the_default_degree(tmp_path, capsys, monkeypatch):
    # the jet algebra is cut off at the suite's degree, so no sampled
    # chain's product is truncated into a false failure
    path = _write(tmp_path, "jobs:\n  - {op: mu-suite, name: d}\n")
    for degree, checked in ((4, 1580), (5, 3792)):
        monkeypatch.setattr(suites, "_MU_DEGREE", degree)
        rc = main(["run", path, "--format", "structured"])
        (job,) = json.loads(capsys.readouterr().out)["jobs"]
        assert rc == 0
        assert (job["status"], job["data"]["checked"]) == ("pass", checked)


def test_mu_suite_walks_the_tuples_the_weight_filter_keeps():
    for maxdeg in range(1, 6):
        weights = [sum(e) for e in FunctionModel(2, maxdeg).monomials]
        for length in range(1, 5):
            want = [
                tup
                for tup in product(range(len(weights)), repeat=length)
                if sum(weights[i] for i in tup) <= maxdeg
            ]
            assert list(_light_tuples(weights, length, maxdeg)) == want


def test_manifest_error_inside_a_running_job_only_fails_that_job(
    tmp_path, capsys, monkeypatch
):
    # manifest errors are all raised at load; the run loop has no second path
    def late(values):
        raise ManifestError("late")

    monkeypatch.setattr(OPS["betti"], "fn", late)
    path = _write(tmp_path, "jobs:\n  - {op: betti, name: b}\n")
    rc = main(["run", path, "--format", "structured"])
    (job,) = json.loads(capsys.readouterr().out)["jobs"]
    assert rc == 1 and job["summary"] == "betti: ManifestError"


def test_text_report_carries_ledger_hash(tmp_path, capsys):
    main(["run", _write(tmp_path, "jobs: []\n")])
    out = capsys.readouterr().out
    assert conventions.ledger_hash() in out


def test_ledger_text_is_stable_against_its_hash():
    import hashlib

    text = conventions.ledger_text()
    assert conventions.ledger_hash() == hashlib.sha256(
        text.encode("utf-8")
    ).hexdigest()
    assert text.startswith("convention ledger, version 1")
