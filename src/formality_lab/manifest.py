"""Manifest loading: one YAML file declares the model caps, named objects,
and the job list.  All numbers are exact: integers or "p/q" strings.

Loading is strict and eager — unknown kinds, unresolved references, bad
rationals, and malformed index keys all fail here with the offending name,
so a manifest that loads will not die on plumbing at run time (job-level
math errors are still surfaced per job).
"""

from fractions import Fraction

import yaml

from .algebras import (
    FunctionModel,
    dual_numbers,
    jet_algebra,
    mat2_unital,
    trunc_poly_algebra,
)
from .cartan import MultiVector
from .deformation import TraceCandidate, moyal
from .poly import Poly

MODEL_DEFAULTS = {
    "vars": 2,
    "degree-cap": 4,
    "nt": 4,
}


class ManifestError(Exception):
    def __init__(self, message, source=None, line=None, column=None):
        self.message = message
        self.source = source
        self.line = line
        self.column = column
        where = source or ""
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}" if where else message)


def as_fraction(v, where):
    if isinstance(v, bool):
        raise ManifestError(f"{where}: expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise ManifestError(
            f"{where}: floats are not allowed, write an integer or p/q"
        )
    if isinstance(v, str):
        try:
            return Fraction(v.strip())
        except (ValueError, ZeroDivisionError):
            raise ManifestError(f"{where}: {v!r} is not an integer or p/q")
    raise ManifestError(f"{where}: expected a rational, got {type(v).__name__}")


def _index_tuple(key, where, strict=True):
    """Parse "0,1" (or an int for singletons) into a tuple of indices."""
    if isinstance(key, int):
        parts = (key,)
    elif isinstance(key, str):
        text = key.strip()
        try:
            parts = tuple(int(p) for p in text.split(",")) if text else ()
        except ValueError:
            raise ManifestError(f"{where}: bad index key {key!r}")
    else:
        raise ManifestError(f"{where}: bad index key {key!r}")
    if strict and (any(p < 0 for p in parts) or list(parts) != sorted(set(parts))):
        raise ManifestError(
            f"{where}: index key {key!r} must be strictly increasing and >= 0"
        )
    return parts


def _poly_of(spec, nvars, where):
    """A coefficient: a rational constant, or {exponent key: rational}."""
    if isinstance(spec, dict):
        out = Poly.zero(nvars)
        for ekey, c in spec.items():
            e = _index_tuple(ekey, where, strict=False)
            if len(e) != nvars:
                raise ManifestError(
                    f"{where}: exponent key {ekey!r} needs {nvars} entries"
                )
            out = out + Poly.monomial(nvars, e, as_fraction(c, where))
        return out
    return Poly.const(nvars, as_fraction(spec, where))


class Job:
    __slots__ = ("name", "op", "args")

    def __init__(self, name, op, args):
        self.name = name
        self.op = op
        self.args = args

    def __repr__(self):
        return f"Job({self.name!r}, op={self.op!r})"


class Manifest:
    def __init__(self, model, objects, jobs, source):
        self.model = model
        self.objects = objects
        self.jobs = jobs
        self.source = source

    def resolve(self, name, kind, where):
        if name not in self.objects:
            raise ManifestError(f"{where}: no object named {name!r}")
        got_kind, obj = self.objects[name]
        if got_kind != kind:
            raise ManifestError(
                f"{where}: {name!r} is a {got_kind}, expected a {kind}"
            )
        return obj


_ALGEBRA_PRESETS = {
    "dual-numbers": lambda spec, w: dual_numbers(),
    "truncated-poly": lambda spec, w: trunc_poly_algebra(
        _int_field(spec, "cap", w, default=2)
    ),
    "matrix-2x2": lambda spec, w: mat2_unital(),
    "jets": lambda spec, w: jet_algebra(
        _int_field(spec, "vars", w, default=2),
        _int_field(spec, "cap", w, default=2),
    ),
}


def _int_field(spec, key, where, default=None, minimum=None):
    v = spec.get(key, default)
    if v is None:
        raise ManifestError(f"{where}: missing {key!r}")
    if isinstance(v, bool) or not isinstance(v, int):
        raise ManifestError(f"{where}: {key!r} must be an integer")
    if minimum is not None and v < minimum:
        raise ManifestError(f"{where}: {key!r} must be >= {minimum}")
    return v


def _build_object(name, spec, model):
    where = f"objects.{name}"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ManifestError(f"{where}: an object needs a 'kind'")
    kind = spec["kind"]
    if kind == "algebra":
        preset = spec.get("preset")
        if preset not in _ALGEBRA_PRESETS:
            known = ", ".join(sorted(_ALGEBRA_PRESETS))
            raise ManifestError(f"{where}: unknown preset {preset!r} (have {known})")
        return kind, _ALGEBRA_PRESETS[preset](spec, where)
    if kind == "multivector":
        nvars = _int_field(spec, "vars", where, default=model["vars"], minimum=1)
        degree = _int_field(spec, "degree", where, minimum=0)
        out = MultiVector(nvars, degree)
        for key, coeff in (spec.get("terms") or {}).items():
            idx = _index_tuple(key, where)
            if len(idx) != degree or any(i >= nvars for i in idx):
                raise ManifestError(f"{where}: term key {key!r} out of shape")
            p = _poly_of(coeff, nvars, where)
            if not p.is_zero():
                out.c[idx] = p
        return kind, out
    if kind == "star-product":
        matrix = spec.get("matrix")
        if not isinstance(matrix, list):
            raise ManifestError(f"{where}: a star product needs its 'matrix'")
        rows = [
            [as_fraction(v, where) for v in row] for row in matrix
        ]
        nt = _int_field(spec, "nt", where, default=model["nt"], minimum=1)
        fm = FunctionModel(len(rows), model["degree-cap"])
        try:
            return kind, moyal(rows, nt, fm)
        except ValueError as e:
            raise ManifestError(f"{where}: {e}")
    if kind == "trace":
        nvars = _int_field(spec, "vars", where, default=model["vars"], minimum=1)
        nt = _int_field(spec, "nt", where, default=model["nt"], minimum=1)
        coeffs = {}
        for key, c in (spec.get("coeffs") or {}).items():
            e = _index_tuple(key, where, strict=False)
            if len(e) != nvars:
                raise ManifestError(
                    f"{where}: jet key {key!r} needs {nvars} entries"
                )
            coeffs[e] = as_fraction(c, where)
        try:
            return kind, TraceCandidate(nvars, coeffs, nt)
        except ValueError as e:
            raise ManifestError(f"{where}: {e}")
    raise ManifestError(f"{where}: unknown kind {kind!r}")


def _parse_model(raw):
    model = dict(MODEL_DEFAULTS)
    for key, v in (raw or {}).items():
        if key not in MODEL_DEFAULTS:
            known = ", ".join(sorted(MODEL_DEFAULTS))
            raise ManifestError(f"model: unknown cap {key!r} (have {known})")
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ManifestError(f"model: {key!r} must be a positive integer")
        model[key] = v
    return model


def parse_manifest(text, source="<manifest>", known_ops=None, expand=None):
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        raise ManifestError(
            e.problem or "malformed document",
            source=source,
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1,
        )
    except yaml.YAMLError as e:
        raise ManifestError(f"malformed document: {e}", source=source)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ManifestError("top level must be a mapping", source=source)
    for key in raw:
        if key not in ("model", "objects", "jobs"):
            raise ManifestError(f"unknown top-level section {key!r}", source=source)

    model = _parse_model(raw.get("model"))
    objects = {}
    for name, spec in (raw.get("objects") or {}).items():
        objects[str(name)] = _build_object(name, spec, model)

    jobs = []
    seen = set()
    raw_jobs = raw.get("jobs") or []
    if not isinstance(raw_jobs, list):
        raise ManifestError("jobs must be a list", source=source)
    for i, spec in enumerate(raw_jobs):
        if not isinstance(spec, dict) or "op" not in spec:
            raise ManifestError(f"jobs[{i}]: a job needs an 'op'")
        args = dict(spec)
        op = args.pop("op")
        name = str(args.pop("name", f"{op}#{i}"))
        if expand is not None and op == "suite":
            for sub_name, sub_op, sub_args in expand(args, model, name):
                if known_ops is not None and sub_op not in known_ops:
                    raise ManifestError(f"jobs[{i}]: suite op {sub_op!r} unknown")
                if sub_name in seen:
                    raise ManifestError(f"duplicate job name {sub_name!r}")
                seen.add(sub_name)
                jobs.append(Job(sub_name, sub_op, sub_args))
            continue
        if known_ops is not None and op not in known_ops:
            known = ", ".join(sorted(known_ops))
            raise ManifestError(f"jobs[{i}]: unknown op {op!r} (have {known})")
        if name in seen:
            raise ManifestError(f"duplicate job name {name!r}")
        seen.add(name)
        jobs.append(Job(name, op, args))
    return Manifest(model, objects, jobs, source)


def load_manifest(path, known_ops=None, expand=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ManifestError(f"cannot read manifest: {e.strerror or e}", source=str(path))
    return parse_manifest(text, source=str(path), known_ops=known_ops, expand=expand)
