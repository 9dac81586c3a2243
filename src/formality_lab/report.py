"""Report assembly and rendering.

The structured format is a stable, versioned JSON tree meant for diffing:
keys sorted, exact rationals rendered as strings, no timestamps or other
run-dependent noise, so identical manifests produce byte-identical bytes.
The text format is a human-readable table over the same content.

Every report embeds the hash of the convention ledger, so numbers are
never quoted without the sign and normalization choices that produced them.
"""

import json
from fractions import Fraction

from .conventions import ledger_hash

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

_MARKS = {"pass": "✓", "fail": "✗", "info": "·"}


class Report:
    """Results in declaration order plus the reproducibility header."""

    def __init__(self, model, results):
        self.model = model
        self.results = results  # list of (Job, JobOutcome)

    def counts(self):
        out = {"pass": 0, "fail": 0, "info": 0}
        for _, outcome in self.results:
            out[outcome.status] += 1
        return out

    @property
    def failed(self):
        return self.counts()["fail"] > 0


def canonical(value):
    """Exact, JSON-safe image of a value: Fractions become strings,
    tuples become lists, mapping keys become strings.  Floats are a bug."""
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        raise TypeError("a float reached the report; all arithmetic is exact")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return str(value)


def to_structured(report):
    tree = {
        "schema": SCHEMA_VERSION,
        "tool": f"formality-lab {TOOL_VERSION}",
        "ledger-hash": ledger_hash(),
        "model": dict(report.model),
        "counts": report.counts(),
        "jobs": [
            {
                "name": job.name,
                "op": job.op,
                "status": outcome.status,
                "summary": outcome.summary,
                "data": canonical(outcome.data),
                "witnesses": [str(w) for w in outcome.witnesses],
            }
            for job, outcome in report.results
        ],
    }
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def to_text(report):
    model = report.model
    lines = [
        f"formality-lab report (schema {SCHEMA_VERSION})",
        f"conventions ledger {ledger_hash()}",
        "model: vars={vars} degree-cap={degree-cap} nt={nt}".format(**model),
        "",
    ]
    width = max((len(job.name) for job, _ in report.results), default=0)
    for job, outcome in report.results:
        mark = _MARKS[outcome.status]
        lines.append(f"  {mark} {job.name.ljust(width)}  {outcome.summary}")
        for w in outcome.witnesses:
            lines.append(f"      | {w}")
    counts = report.counts()
    lines.append("")
    lines.append(
        f"{len(report.results)} jobs: {counts['pass']} pass,"
        f" {counts['fail']} fail, {counts['info']} info"
    )
    return "\n".join(lines) + "\n"


def emit(report, format):
    if format == "structured":
        return to_structured(report)
    if format == "text":
        return to_text(report)
    raise ValueError(f"unknown format {format!r}")
