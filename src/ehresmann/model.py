"""Declarative model files.

A model file is YAML with named blocks: one bundle chart, optionally one
manifold chart, and named connections, jet fields, Christoffel tables,
manifold connections, sections and curves.  All expressions are strings in
the package's textual grammar and are parsed and shape-checked at load
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from . import expr as ex
from .bundle import BundleChart, JetChart, Section, check_box, check_number, default_names
from .connection import EhresmannConnection
from .errors import ChartError, EhresmannError, ModelError, ParseError
from .jetfield import JetField2
from .linear import Christoffel, ManifoldConnection
from .transport import Curve

__all__ = ["TABLES", "ModelFile", "load"]


@dataclass
class ModelFile:
    path: str
    chart: BundleChart | None = None
    manifold: BundleChart | None = None  # the tangent chart of the manifold block
    connections: dict = field(default_factory=dict)
    jetfields: dict = field(default_factory=dict)
    christoffels: dict = field(default_factory=dict)
    manifold_connections: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    probe: ex.ProbeConfig = ex.DEFAULT_PROBE

    def require(self, kind, name):
        table = getattr(self, kind)
        if name not in table:
            known = ", ".join(sorted(table)) or "none"
            raise ModelError(f"unknown {kind[:-1]} {name!r} (known: {known})")
        return table[name]


def _parse_expr(text, where):
    if isinstance(text, (int, float)):  # a bool too, which _number refuses
        value = _number(text, where)
        if not math.isfinite(value):
            raise ModelError(f"{where}: number {text!r} is out of range")
        return ex.Const(value)
    try:
        return ex.parse(str(text))
    except ParseError as err:
        raise ModelError(f"{where}: {err}") from err


def _parse_table(rows, where):
    """Nested lists of expression texts as nested tuples of expressions; the
    constructor that receives the table checks its shape."""
    if isinstance(rows, list):
        return tuple(_parse_table(row, f"{where}[{k + 1}]") for k, row in enumerate(rows))
    return _parse_expr(rows, where)


def _names(value, prefix, what):
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 1:
            raise ModelError(f"{what}: dimension must be positive")
        return default_names(prefix, value)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ModelError(f"{what}: expected a dimension or a list of names")


def _box(value, what, names):
    out = {}
    for name, bounds in _mapping(value, f"{what}.box").items():
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ModelError(f"{what}: box entry {name!r} must be [low, high]")
        out[name] = tuple(_number(bound, f"{what}.box.{name}") for bound in bounds)
    _build(what, check_box, out, names)
    return out


def _mapping(value, where, known=None):
    """``value`` as a mapping, null as an empty one; with ``known``, a key
    outside it is refused."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelError(f"{where}: must be a mapping")
    unknown = sorted(map(str, set(value) - set(known))) if known is not None else []
    if unknown:
        raise ModelError(f"{where}: unknown keys {unknown} (known: {', '.join(known)})")
    return value


def _build(where, make, *args):
    """``make(*args)``, with an :class:`EhresmannError` reported as a
    :class:`ModelError` at ``where``; a :class:`ModelError` already names
    its own."""
    try:
        return make(*args)
    except ModelError:
        raise
    except EhresmannError as err:
        raise ModelError(f"{where}: {err}") from err


def _number(value, where, kind=float):
    try:
        return check_number(value, where, kind)
    except ChartError as err:
        raise ModelError(str(err)) from err


def _curve(model, components, entry, where):
    """A curve on the manifold chart, over the entry's ``domain`` (default
    [0, 1]) with its ``periods``."""
    domain = entry.get("domain", [0.0, 1.0])
    if not (isinstance(domain, list) and len(domain) == 2):
        raise ModelError(f"{where}.domain: expected [t0, t1]")
    periods = _mapping(entry.get("periods"), f"{where}.periods")
    return Curve(
        model.manifold.base_names,
        components,
        tuple(_number(t, f"{where}.domain") for t in domain),
        {str(k): _number(v, f"{where}.periods.{k}") for k, v in periods.items()},
    )


# the entry tables of a model file, in load order: name -> (the chart block
# an entry needs, the keys of its expression tables, build(model, *tables,
# entry, where), which makes the entry from them, then its optional keys)
TABLES = {
    "connections": ("bundle", ("gamma",), lambda m, g, *_: EhresmannConnection(m.chart, g)),
    "jetfields": ("bundle", ("F", "G"), lambda m, F, G, *_: JetField2(JetChart(m.chart), F, G)),
    "christoffels": ("bundle", ("gamma",), lambda m, g, *_: Christoffel(m.chart, g)),
    "manifold_connections": (
        "manifold", ("gamma",),
        lambda m, g, *_: ManifoldConnection(m.manifold, g),
    ),
    "sections": ("bundle", ("components",), lambda m, phi, *_: Section(m.chart, phi)),
    "curves": ("manifold", ("components",), _curve, "domain", "periods"),
}


def load(path) -> ModelFile:
    """Load and fully validate a model file."""
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, ValueError) as err:  # ValueError: e.g. a date 2024-13-45
        raise ModelError(f"{path}: not valid YAML: {err}") from err
    except OSError as err:
        raise ModelError(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        raise ModelError(f"{path}: model file must be a mapping")
    _mapping(raw, path, ("probe", "bundle", "manifold", *TABLES))

    model = ModelFile(path=str(path))

    kinds = dict(points=int, low=float, high=float, tol=float, seed=int, max_retries=int)
    probe = _mapping(raw.get("probe"), "probe", kinds)
    model.probe = _build("probe", lambda: ex.ProbeConfig(**{
        key: _number(probe.get(key, getattr(ex.DEFAULT_PROBE, key)), f"probe.{key}", kind)
        for key, kind in kinds.items()
    }))

    if raw.get("bundle") is not None:
        bundle = _mapping(raw["bundle"], "bundle", ("base", "fiber", "box"))
        base = _names(bundle.get("base"), "x", "bundle.base")
        fiber = _names(bundle.get("fiber"), "y", "bundle.fiber")
        box = _box(bundle.get("box"), "bundle", base + fiber)
        model.chart = _build("bundle", BundleChart, base, fiber, box)

    if raw.get("manifold") is not None:
        manifold = _mapping(raw["manifold"], "manifold", ("coords", "box"))
        names = _names(manifold.get("coords"), "x", "manifold.coords")
        box = _box(manifold.get("box"), "manifold", names)
        model.manifold = _build("manifold", BundleChart.tangent, names, box)

    for kind, (block, keys, build, *optional) in TABLES.items():
        for name, entry in _mapping(raw.get(kind), kind).items():
            if not isinstance(name, str):
                raise ModelError(f"{kind}: entry name {name!r} is not a string")
            where = f"{kind}.{name}"
            if getattr(model, "chart" if block == "bundle" else "manifold") is None:
                raise ModelError(f"{where}: requires a {block} block")
            if entry is None:
                raise ModelError(f"{where}: must be a mapping")
            entry = _mapping(entry, where, (*keys, *optional))
            tables = [_table(entry, key, where) for key in keys]
            getattr(model, kind)[name] = _build(where, build, model, *tables, entry, where)

    return model


def _table(entry, key, where):
    """The table under ``key`` of an entry, parsed."""
    if key not in entry:
        raise ModelError(f"{where}: missing {key!r}")
    return _parse_table(entry[key], f"{where}.{key}")
