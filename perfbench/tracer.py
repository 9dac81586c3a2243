"""Per-layer spans and counters for a traced benchmark run.

The tracer never edits the program: it replaces public functions and
methods where their callers look them up (module attributes, class
attributes and the op registry) with wrappers that time each call.  A
span's self time is its duration minus the durations of the wrapped spans
called inside it; its inclusive time counts only the outermost activation
of that name, so recursion and shared names are not counted twice.

Every timing here is inflated by the wrappers themselves.  End-to-end
figures come from untraced runs only.
"""

import sys
import time
from fractions import Fraction


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = {}
        self._stack = []  # one [child seconds] cell per open span

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            stat.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.self_s += dt - cell[0]
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dt

        return traced

    def snapshot(self):
        out = dict(self.counters)
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.s"] = s.total_s
        return out


def replace_everywhere(original, replacement):
    """Point every attribute of a formality_lab module that is ``original``
    at ``replacement``."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "formality_lab":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"{original!r} is not looked up in any formality_lab module")


def count_fractions(tracer):
    """Count every Fraction construction, arithmetic results included."""
    original = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        tracer.counters["scalars.fraction_new"] += 1
        return original(cls, *args, **kwargs)

    tracer.counters["scalars.fraction_new"] = 0
    Fraction.__new__ = staticmethod(counted_new)


def install(tracer):
    """Wrap the public layers of formality_lab; the package must be imported."""
    from formality_lab import ahat, cartan, cli, deformation, hochschild, linfty
    from formality_lab import polydiff, suites
    from formality_lab.core import linalg
    from formality_lab.poly import Poly

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    def function(module, attr, name):
        original = getattr(module, attr)
        replace_everywhere(original, tracer.wrap(name, original))

    method(Poly, "__mul__", "poly.mul")
    method(Poly, "diff", "poly.diff")
    function(cartan, "schouten", "cartan.schouten")
    method(cartan._Exterior, "wedge", "cartan.wedge")
    method(polydiff.PolyDiffOperator, "apply", "polydiff.apply")
    for attr in ("check_gerstenhaber", "check_linfty", "mc_residual"):
        function(linfty, attr, f"linfty.{attr}")
    method(deformation.StarProduct, "star_series", "deformation.star_series")
    function(deformation, "check_associativity", "deformation.check_associativity")
    function(hochschild, "homology_betti", "hochschild.betti")
    function(hochschild, "cohomology_betti", "hochschild.betti")
    for attr in (
        "check_pipeline_chain_maps",
        "exp_contract_identity",
        "nu0",
        "ahat_flat",
        "spectral_degeneration_probe",
    ):
        function(ahat, attr, "ahat")

    # linalg.solve is also imported inside polydiff.delta_primitive at call
    # time, which the module attribute replacement covers.
    function(linalg, "solve", "linalg.solve")
    timed_rank_kernel = tracer.wrap("linalg.rank_kernel", linalg.rank_kernel)

    def rank_kernel(rows, ncols):
        rows = list(rows)
        tracer.count("linalg.rank_kernel.rows", len(rows))
        tracer.count(
            "linalg.rank_kernel.nnz_in", sum(1 for r in rows for v in r.values() if v)
        )
        result = timed_rank_kernel(rows, ncols)
        tracer.count("linalg.rank_kernel.rank", result[0])
        return result

    for key in ("linalg.rank_kernel.rows", "linalg.rank_kernel.nnz_in", "linalg.rank_kernel.rank"):
        tracer.counters[key] = 0
    replace_everywhere(linalg.rank_kernel, rank_kernel)

    for op, spec in suites.OPS.items():
        spec.fn = tracer.wrap(f"suites.{op}", spec.fn)

    cli.load_manifest = tracer.wrap("manifest.load", cli.load_manifest)
    cli.check_job_args = tracer.wrap("manifest.load", cli.check_job_args)
    timed_emit = tracer.wrap("report.emit", cli.emit)

    def emit(report, fmt):
        doc = timed_emit(report, fmt)
        tracer.count("report.bytes", len(doc.encode("utf-8")))
        return doc

    tracer.counters["report.bytes"] = 0
    cli.emit = emit
    count_fractions(tracer)
