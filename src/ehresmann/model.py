"""Declarative model files.

A model file is YAML with named blocks: one bundle chart, optionally one
manifold chart, and named connections, jet fields, Christoffel tables,
manifold connections, sections and curves.  All expressions are strings in
the package's textual grammar and are parsed and shape-checked at load
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from . import expr as ex
from .bundle import BundleChart, JetChart, Section, check_box, check_number, default_names
from .connection import EhresmannConnection
from .errors import ChartError, EhresmannError, ModelError, ParseError
from .jetfield import JetField2
from .linear import Christoffel, ManifoldConnection
from .transport import Curve

__all__ = ["ModelFile", "load"]


@dataclass
class ModelFile:
    path: str
    chart: BundleChart | None = None
    manifold_names: tuple | None = None
    manifold_box: dict = field(default_factory=dict)
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
    if isinstance(text, (int, float)):
        return ex.Const(float(text))
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
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ModelError(f"{what}: box must map coordinate -> [low, high]")
    out = {}
    for name, bounds in value.items():
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ModelError(f"{what}: box entry {name!r} must be [low, high]")
        out[name] = tuple(_number(bound, f"{what}.box.{name}") for bound in bounds)
    _build(what, check_box, out, names)
    return out


def _build(where, make, *args):
    """``make(*args)``, with a :class:`ChartError` reported as a
    :class:`ModelError` at ``where``."""
    try:
        return make(*args)
    except ChartError as err:
        raise ModelError(f"{where}: {err}") from err


def _number(value, where, kind=float):
    try:
        return check_number(value, where, kind)
    except ChartError as err:
        raise ModelError(str(err)) from err


def load(path) -> ModelFile:
    """Load and fully validate a model file."""
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as err:
        raise ModelError(f"{path}: not valid YAML: {err}") from err
    except OSError as err:
        raise ModelError(f"{path}: {err}") from err
    if not isinstance(raw, dict):
        raise ModelError(f"{path}: model file must be a mapping")

    model = ModelFile(path=str(path))

    probe_block = raw.get("probe") or {}
    if not isinstance(probe_block, dict):
        raise ModelError("probe: must be a mapping")
    kinds = dict(points=int, low=float, high=float, tol=float, seed=int, max_retries=int)
    unknown = sorted(map(str, set(probe_block) - set(kinds)))
    if unknown:
        raise ModelError(f"probe: unknown keys {unknown} (known: {', '.join(kinds)})")
    settings = {
        key: _number(probe_block.get(key, getattr(ex.DEFAULT_PROBE, key)), f"probe.{key}", kind)
        for key, kind in kinds.items()
    }
    try:
        model.probe = ex.ProbeConfig(**settings)
    except EhresmannError as err:
        raise ModelError(f"probe: {err}") from err

    bundle_block = raw.get("bundle")
    if bundle_block is not None:
        if not isinstance(bundle_block, dict):
            raise ModelError("bundle: must be a mapping")
        base = _names(bundle_block.get("base", bundle_block.get("m")), "x", "bundle.base")
        fiber = _names(bundle_block.get("fiber", bundle_block.get("n")), "y", "bundle.fiber")
        box = _box(bundle_block.get("box"), "bundle", base + fiber)
        model.chart = _build("bundle", BundleChart, base, fiber, box)

    manifold_block = raw.get("manifold")
    if manifold_block is not None:
        if not isinstance(manifold_block, dict):
            raise ModelError("manifold: must be a mapping")
        model.manifold_names = _names(
            manifold_block.get("coords", manifold_block.get("m")), "x", "manifold.coords"
        )
        model.manifold_box = _box(manifold_block.get("box"), "manifold", model.manifold_names)

    def need_chart(where):
        if model.chart is None:
            raise ModelError(f"{where}: requires a bundle block")
        return model.chart

    def need_manifold(where):
        if model.manifold_names is None:
            raise ModelError(f"{where}: requires a manifold block")
        return model.manifold_names

    for name, block in (raw.get("connections") or {}).items():
        where = f"connections.{name}"
        chart = need_chart(where)
        table = _table(block, "gamma", where)
        model.connections[name] = _build(where, EhresmannConnection, chart, table)

    for name, block in (raw.get("jetfields") or {}).items():
        where = f"jetfields.{name}"
        chart = need_chart(where)
        F = _table(block, "F", where)
        G = _table(block, "G", where)
        model.jetfields[name] = _build(where, JetField2, JetChart(chart), F, G)

    for name, block in (raw.get("christoffels") or {}).items():
        where = f"christoffels.{name}"
        chart = need_chart(where)
        table = _table(block, "gamma", where)
        model.christoffels[name] = _build(where, Christoffel, chart, table)

    for name, block in (raw.get("manifold_connections") or {}).items():
        where = f"manifold_connections.{name}"
        names = need_manifold(where)
        table = _table(block, "gamma", where)
        model.manifold_connections[name] = _build(
            where, ManifoldConnection, names, table, dict(model.manifold_box)
        )

    for name, block in (raw.get("sections") or {}).items():
        where = f"sections.{name}"
        chart = need_chart(where)
        components = _table(block, "components", where)
        model.sections[name] = _build(where, Section, chart, components)

    for name, block in (raw.get("curves") or {}).items():
        where = f"curves.{name}"
        names = tuple(need_manifold(where))
        components = _table(block, "components", where)
        domain = block.get("domain", [0.0, 1.0])
        if not (isinstance(domain, list) and len(domain) == 2):
            raise ModelError(f"{where}.domain: expected [t0, t1]")
        periods = block.get("periods") or {}
        if not isinstance(periods, dict):
            raise ModelError(f"{where}.periods: expected a mapping")
        model.curves[name] = _build(
            where,
            Curve,
            names,
            components,
            tuple(_number(t, f"{where}.domain") for t in domain),
            {str(k): _number(v, f"{where}.periods.{k}") for k, v in periods.items()},
        )

    return model


def _table(block, key, where):
    """The table under ``key`` of a block, parsed."""
    if not isinstance(block, dict) or key not in block:
        raise ModelError(f"{where}: missing {key!r}")
    return _parse_table(block[key], f"{where}.{key}")
