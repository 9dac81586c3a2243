"""Command-line entry point.

One subcommand: ``formality-lab run <manifest>``.  The manifest is the
single source of truth for a batch of checks; the flags only control
output format and where the report goes.  Jobs run one after another in
declaration order.

Exit codes: 0 all pass-type jobs pass, 1 any check failure, 2 on usage,
parse, or resolution errors.
"""

import argparse
import sys

from .ahat import WindowOverflow
from .manifest import ManifestError, load_manifest
from .report import Report, emit
from .suites import OPS, JobOutcome, check_job_args, expand_suite, run_job


def _positive_int(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return v


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="formality-lab",
        description="Run exact identity checks declared in a manifest.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    run = sub.add_parser("run", help="execute a manifest and report results")
    run.add_argument("manifest", help="path to the manifest file")
    run.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report rendering (default: text)",
    )
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="accepted for compatibility; has no effect (jobs run in "
        "declaration order)",
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to a file instead of stdout",
    )
    return parser


def _raised_at(exc):
    """``module.function:line`` of the innermost package frame ``exc``
    passed through.  No file path, so the report reads the same on every
    machine."""
    where = None
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("formality_lab."):
            where = f"{module}.{tb.tb_frame.f_code.co_name}:{tb.tb_lineno}"
        tb = tb.tb_next
    return where


def _raised(exc, summary):
    witness = f"{type(exc).__name__} at {_raised_at(exc)}: {exc}"
    return JobOutcome("fail", summary, {}, [witness])


def _execute(job, mf):
    """One job to one outcome.  Every manifest error was raised when the
    manifest loaded, so anything a job raises is a failure of that job."""
    try:
        return run_job(job, mf)
    except WindowOverflow as e:
        return _raised(e, f"{job.op}: series window overflow")
    except Exception as e:
        return _raised(e, f"{job.op}: {type(e).__name__}")


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        mf = load_manifest(ns.manifest, known_ops=OPS, expand=expand_suite)
        for job in mf.jobs:
            check_job_args(job, mf)
    except ManifestError as e:
        # check_job_args names the job, not the file
        print(f"formality-lab: {e.in_file(ns.manifest)}", file=sys.stderr)
        return 2

    rep = Report(mf.model, [(job, _execute(job, mf)) for job in mf.jobs])
    doc = emit(rep, ns.format)
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except OSError as e:
            print(f"formality-lab: cannot write {ns.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(doc)
    return 1 if rep.failed else 0


if __name__ == "__main__":
    sys.exit(main())
