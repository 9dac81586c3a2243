"""One benchmark round in a fresh interpreter.

    python3 perfbench/child.py MODE MANIFEST REPORT SIDECAR

MODE is ``run`` (untraced), ``setup`` (stop where the first job would
start) or ``trace`` (per-layer spans on).  The program is driven only
through ``formality_lab.cli.main``.  The only hook in untraced runs marks
the start of the first job; in ``run`` and ``trace`` mode a thread samples
the host's speed (speed.py).  Times are ``time.monotonic()`` readings,
which the parent can compare with its own because the clock is shared by
every process on the host.  The sidecar is a JSON object with the marks,
the probe samples, the process's peak resident set and, when tracing, the
per-layer figures.
"""

import json
import resource
import sys
import time
from pathlib import Path

from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent


class _StopBeforeFirstJob(BaseException):
    """Raised by the first-job hook in setup mode; BaseException so the
    CLI's per-job error handling does not turn it into a job failure."""


def main(argv):
    mode, manifest, report, sidecar = argv
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    from formality_lab import cli

    import_s = time.perf_counter() - t_import
    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    marks = {}
    run_job = cli.run_job

    def first_job_marked(job, mf):
        if "first_job" not in marks:
            marks["first_job"] = time.monotonic()
            if mode == "setup":
                raise _StopBeforeFirstJob
        return run_job(job, mf)

    cli.run_job = first_job_marked
    sampler = Sampler()
    if mode != "setup":
        sampler.start()
    argv = ["run", manifest, "--format", "structured", "--jobs", "1", "--out", report]
    try:
        code = cli.main(argv)
    except _StopBeforeFirstJob:
        code = 0
    marks["end"] = time.monotonic()
    if mode != "setup":
        sampler.stop()
    out = {
        "exit": code,
        "marks": marks,
        "probe_s": sampler.samples,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracer.snapshot()
        layers["import.s"] = import_s
        out["layers"] = layers
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
