"""Manifest loading: one YAML file declares the model caps, named objects,
and the job list.  All numbers are exact: integers or "p/q" strings.

Every value is checked when the manifest loads.  The ``model`` section,
each object kind and each op (``suites.OPS``) have one declarative schema:
key -> (type, default), where a type checks and resolves one value and a
default is REQUIRED, MODEL (the model's value of the same key), None (the
key is optional) or a value checked like a given one.  ``check`` runs every
schema, so unknown keys, bad values, unresolved references and malformed
index keys all fail here with the offending name, before the first job
runs; a job only ever fails on its mathematics.
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

    def in_file(self, source):
        """This error, naming the manifest file ``source`` if it names none."""
        if self.source is not None:
            return self
        return ManifestError(self.message, source, self.line, self.column)


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


# ------------------------------------------------------------------ schemas

REQUIRED = object()
MODEL = object()


def check(schema, raw, where, manifest, what):
    """The values of the mapping ``raw`` under ``schema``, checked and
    resolved, with every absent key at its default.  ``what`` names a key
    in the unknown-key message ("cap", "betti argument", "trace field")."""
    if not isinstance(raw, dict):
        raise ManifestError(f"{where} must be a mapping")
    for key in raw:
        if key not in schema:
            known = ", ".join(sorted(schema)) or "none"
            raise ManifestError(f"{where}: unknown {what} {key!r} (have {known})")
    out = {}
    for key, (parse, default) in schema.items():
        if key in raw or default not in (REQUIRED, MODEL, None):
            out[key] = parse(raw.get(key, default), where, key, manifest)
        elif default is REQUIRED:
            raise ManifestError(f"{where}: missing {key!r}")
        else:
            out[key] = None if default is None else manifest.model[key]
    return out


def integer(minimum, many=False, maximum=None):
    """An integer >= minimum, and <= maximum when there is one, or, ``many``,
    a nonempty list of them."""
    def ok(x):
        if isinstance(x, bool) or not isinstance(x, int):
            return False
        return minimum <= x and (maximum is None or x <= maximum)

    def parse(v, where, key, manifest):
        bound = f">= {minimum}" + ("" if maximum is None else f" and <= {maximum}")
        if many and not (isinstance(v, list) and v and all(map(ok, v))):
            raise ManifestError(f"{where}: {key} must be a list of integers {bound}")
        if not many and not ok(v):
            raise ManifestError(f"{where}: {key!r} must be an integer {bound}")
        return v
    return parse


def boolean(v, where, key, manifest):
    if not isinstance(v, bool):
        raise ManifestError(f"{where}: {key!r} must be true or false")
    return v


def choice(*options):
    def parse(v, where, key, manifest):
        if v not in options:
            raise ManifestError(f"{where}: {key} must be {' or '.join(options)}")
        return v
    return parse


def reference(kind, presets=None):
    """The name of an object of ``kind``, or of one of ``presets`` (name ->
    constructor), resolved to ``(name, object)``."""
    def parse(v, where, key, manifest):
        if not isinstance(v, str):
            raise ManifestError(f"{where}: {key} must be an object name")
        if presets and v in presets:
            return v, presets[v]()
        if v not in manifest.objects:
            raise ManifestError(f"{where}: no object named {v!r}")
        got_kind, obj = manifest.objects[v]
        if got_kind != kind:
            raise ManifestError(f"{where}: {v!r} is a {got_kind}, expected a {kind}")
        return v, obj
    return parse


def _index_tuple(key, where):
    """Parse "0,1" (or an int for singletons) into a tuple of indices."""
    try:
        text = str(key) if isinstance(key, int) else key.strip()
        return tuple(int(p) for p in text.split(",")) if text else ()
    except (AttributeError, ValueError):
        raise ManifestError(f"{where}: bad index key {key!r}")


def index_map(value):
    """A mapping from index keys to values of the type ``value``, keyed by
    index tuple; two keys that parse to one tuple ("0,1", "0, 1") are refused."""
    def parse(v, where, key, manifest):
        if not isinstance(v, dict):
            raise ManifestError(f"{where}: {key} must be a mapping")
        out = {}
        for k, c in v.items():
            idx = _index_tuple(k, where)
            if idx in out:
                raise ManifestError(f"{where}: index key {k!r} repeats in {key}")
            out[idx] = value(c, where, key, manifest)
        return out
    return parse


def _rational(v, where, key, manifest):
    return as_fraction(v, where)


def _coefficient(v, where, key, manifest):
    """A rational constant, or a polynomial as {exponent key: rational}."""
    if isinstance(v, dict):
        return index_map(_rational)(v, where, "a coefficient", manifest)
    return as_fraction(v, where)


def _matrix(v, where, key, manifest):
    if not isinstance(v, list) or not all(isinstance(row, list) for row in v):
        raise ManifestError(f"{where}: {key} must be a list of rows")
    return [[as_fraction(x, where) for x in row] for row in v]


def _multivector(v, model):
    n = v["vars"]
    terms = {i: Poly(n, c) if isinstance(c, dict) else c for i, c in v["terms"].items()}
    return MultiVector(n, v["degree"], terms)


MODEL_SCHEMA = {
    "vars": (integer(1), 2),
    "degree-cap": (integer(1), 4),
    "nt": (integer(1), 4),
}

# kind, or an algebra's preset -> (schema, build(values, model)); the
# constructors check the shapes (index ranges, jet orders, antisymmetry)
_OBJECTS = {
    "multivector": (
        {
            "vars": (integer(1), MODEL),
            "degree": (integer(0), REQUIRED),
            "terms": (index_map(_coefficient), {}),
        },
        _multivector,
    ),
    "star-product": (
        {"matrix": (_matrix, REQUIRED), "nt": (integer(1), MODEL)},
        lambda v, model: moyal(
            v["matrix"], v["nt"], FunctionModel(len(v["matrix"]), model["degree-cap"])
        ),
    ),
    "trace": (
        {
            "vars": (integer(1), MODEL),
            "nt": (integer(1), MODEL),
            "coeffs": (index_map(_rational), {}),
        },
        lambda v, model: TraceCandidate(v["vars"], v["coeffs"], v["nt"]),
    ),
}
_ALGEBRA_PRESETS = {
    "dual-numbers": ({}, lambda v, model: dual_numbers()),
    "truncated-poly": (
        {"cap": (integer(0), 2)},
        lambda v, model: trunc_poly_algebra(v["cap"]),
    ),
    "matrix-2x2": ({}, lambda v, model: mat2_unital()),
    "jets": (
        {"vars": (integer(1), 2), "cap": (integer(0), 2)},
        lambda v, model: jet_algebra(v["vars"], v["cap"]),
    ),
}


def _build_object(name, spec, manifest):
    where = f"objects.{name}"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ManifestError(f"{where}: an object needs a 'kind'")
    fields = dict(spec)
    kind = fields.pop("kind")
    if kind == "algebra":
        preset = fields.pop("preset", None)
        if preset not in _ALGEBRA_PRESETS:
            known = ", ".join(sorted(_ALGEBRA_PRESETS))
            raise ManifestError(f"{where}: unknown preset {preset!r} (have {known})")
        (schema, build), what = _ALGEBRA_PRESETS[preset], f"{preset} algebra"
    elif kind in _OBJECTS:
        (schema, build), what = _OBJECTS[kind], kind
    else:
        raise ManifestError(f"{where}: unknown kind {kind!r}")
    values = check(schema, fields, where, manifest, f"{what} field")
    try:
        return kind, build(values, manifest.model)
    except ValueError as e:
        raise ManifestError(f"{where}: {e}")


class Job:
    """One job: its name, its op, its arguments as written, and the values
    ``suites.check_job_args`` checked and resolved from them."""

    __slots__ = ("name", "op", "args", "values")

    def __init__(self, name, op, args):
        self.name = name
        self.op = op
        self.args = args
        self.values = None

    def __repr__(self):
        return f"Job({self.name!r}, op={self.op!r})"


class Manifest:
    def __init__(self, model, objects, jobs):
        self.model = model
        self.objects = objects
        self.jobs = jobs


def _unique_key_map(loader, node):
    """The safe mapping constructor, refusing a key given twice at the
    repeated key instead of keeping the last value.  Keys brought in by a
    ``<<`` merge may still be overridden."""
    seen = set()
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":
            continue
        key = loader.construct_object(key_node)
        try:
            repeated = key in seen
        except TypeError:
            break  # unhashable: the mapping constructor reports it
        if repeated:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping",
                node.start_mark,
                f"duplicate key {key!r}",
                key_node.start_mark,
            )
        seen.add(key)
    return loader.construct_yaml_map(node)


class _UniqueKeyLoader(yaml.SafeLoader):
    pass


_UniqueKeyLoader.add_constructor("tag:yaml.org,2002:map", _unique_key_map)


def parse_manifest(text, source="<manifest>", known_ops=None, expand=None):
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
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
    try:
        return _parse_sections(raw, known_ops, expand)
    except ManifestError as e:
        raise e.in_file(source) from None


def _parse_sections(raw, known_ops, expand):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ManifestError("top level must be a mapping")
    for key in raw:
        if key not in ("model", "objects", "jobs"):
            raise ManifestError(f"unknown top-level section {key!r}")

    model = check(MODEL_SCHEMA, raw.get("model") or {}, "model", None, "cap")
    mf = Manifest(model, {}, [])
    raw_objects = raw.get("objects") or {}
    if not isinstance(raw_objects, dict):
        raise ManifestError("objects must be a mapping")
    for name, spec in raw_objects.items():
        mf.objects[str(name)] = _build_object(name, spec, mf)

    seen = set()
    raw_jobs = raw.get("jobs") or []
    if not isinstance(raw_jobs, list):
        raise ManifestError("jobs must be a list")
    for i, spec in enumerate(raw_jobs):
        if not isinstance(spec, dict) or "op" not in spec:
            raise ManifestError(f"jobs[{i}]: a job needs an 'op'")
        args = dict(spec)
        op = args.pop("op")
        name = str(args.pop("name", f"{op}#{i}"))
        if expand is not None and op == "suite":
            expanded = expand(args, mf.model, name)
        else:
            expanded = [(name, op, args)]
        for sub_name, sub_op, sub_args in expanded:
            if known_ops is not None and sub_op not in known_ops:
                known = ", ".join(sorted(known_ops))
                raise ManifestError(f"jobs[{i}]: unknown op {sub_op!r} (have {known})")
            if sub_name in seen:
                raise ManifestError(f"duplicate job name {sub_name!r}")
            seen.add(sub_name)
            mf.jobs.append(Job(sub_name, sub_op, sub_args))
    return mf


def load_manifest(path, known_ops=None, expand=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ManifestError(f"cannot read manifest: {e.strerror or e}", source=str(path))
    return parse_manifest(text, source=str(path), known_ops=known_ops, expand=expand)
