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
from .bundle import BundleChart, JetChart, Section, check_box, default_names
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


def _parse_table(rows, shape, where):
    if len(rows) != shape[0]:
        raise ModelError(f"{where}: expected {shape[0]} rows, found {len(rows)}")
    out = []
    for r, row in enumerate(rows):
        if len(shape) == 1:
            out.append(_parse_expr(row, f"{where}[{r + 1}]"))
            continue
        if not isinstance(row, list):
            raise ModelError(f"{where}[{r + 1}]: expected a list")
        out.append(_parse_table(row, shape[1:], f"{where}[{r + 1}]"))
    return tuple(out)


def _names(value, prefix, what):
    if isinstance(value, int):
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
    try:
        check_box(out, names)
    except ChartError as err:
        raise ModelError(f"{what}: {err}") from err
    return out


def _number(value, where, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ModelError(f"{where}: expected a number, got {value!r}") from err


def load(path) -> ModelFile:
    """Load and fully validate a model file."""
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
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
        try:
            model.chart = BundleChart(base, fiber, box)
        except ChartError as err:
            raise ModelError(f"bundle: {err}") from err

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

    for name, block in (raw.get("connections") or {}).items():
        chart = need_chart(f"connections.{name}")
        rows = _require_list(block, "gamma", f"connections.{name}")
        table = _parse_table(rows, (chart.n, chart.m), f"connections.{name}.gamma")
        try:
            model.connections[name] = EhresmannConnection(chart, table)
        except ChartError as err:
            raise ModelError(f"connections.{name}: {err}") from err

    for name, block in (raw.get("jetfields") or {}).items():
        chart = need_chart(f"jetfields.{name}")
        F = _parse_table(
            _require_list(block, "F", f"jetfields.{name}"),
            (chart.n, chart.m),
            f"jetfields.{name}.F",
        )
        G = _parse_table(
            _require_list(block, "G", f"jetfields.{name}"),
            (chart.n, chart.m, chart.m),
            f"jetfields.{name}.G",
        )
        try:
            model.jetfields[name] = JetField2(JetChart(chart), F, G)
        except ChartError as err:
            raise ModelError(f"jetfields.{name}: {err}") from err

    for name, block in (raw.get("christoffels") or {}).items():
        chart = need_chart(f"christoffels.{name}")
        table = _parse_table(
            _require_list(block, "gamma", f"christoffels.{name}"),
            (chart.n, chart.n, chart.m),
            f"christoffels.{name}.gamma",
        )
        try:
            model.christoffels[name] = Christoffel(chart, table)
        except ChartError as err:
            raise ModelError(f"christoffels.{name}: {err}") from err

    for name, block in (raw.get("manifold_connections") or {}).items():
        if model.manifold_names is None:
            raise ModelError(f"manifold_connections.{name}: requires a manifold block")
        m = len(model.manifold_names)
        table = _parse_table(
            _require_list(block, "gamma", f"manifold_connections.{name}"),
            (m, m, m),
            f"manifold_connections.{name}.gamma",
        )
        try:
            model.manifold_connections[name] = ManifoldConnection(
                model.manifold_names, table, dict(model.manifold_box)
            )
        except ChartError as err:
            raise ModelError(f"manifold_connections.{name}: {err}") from err

    for name, block in (raw.get("sections") or {}).items():
        chart = need_chart(f"sections.{name}")
        components = _parse_table(
            _require_list(block, "components", f"sections.{name}"),
            (chart.n,),
            f"sections.{name}.components",
        )
        try:
            model.sections[name] = Section(chart, components)
        except ChartError as err:
            raise ModelError(f"sections.{name}: {err}") from err

    for name, block in (raw.get("curves") or {}).items():
        if model.manifold_names is None:
            raise ModelError(f"curves.{name}: requires a manifold block")
        components = _parse_table(
            _require_list(block, "components", f"curves.{name}"),
            (len(model.manifold_names),),
            f"curves.{name}.components",
        )
        domain = block.get("domain", [0.0, 1.0])
        if not (isinstance(domain, list) and len(domain) == 2):
            raise ModelError(f"curves.{name}.domain: expected [t0, t1]")
        periods = block.get("periods") or {}
        if not isinstance(periods, dict):
            raise ModelError(f"curves.{name}.periods: expected a mapping")
        try:
            model.curves[name] = Curve(
                tuple(model.manifold_names),
                components,
                tuple(_number(t, f"curves.{name}.domain") for t in domain),
                {str(k): _number(v, f"curves.{name}.periods.{k}") for k, v in periods.items()},
            )
        except ChartError as err:
            raise ModelError(f"curves.{name}: {err}") from err

    return model


def _require_list(block, key, where):
    if not isinstance(block, dict) or key not in block:
        raise ModelError(f"{where}: missing {key!r}")
    value = block[key]
    if not isinstance(value, list):
        raise ModelError(f"{where}.{key}: expected a list")
    return value
