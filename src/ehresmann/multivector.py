"""Decomposable multivector representatives of connections.

A connection determines (up to a nonvanishing factor) the wedge of its
horizontal frame; this module builds that representative, contracts it with
m-forms, and decides transversality and class equivalence at probe points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import expr as ex
from .bundle import BundleChart
from .connection import EhresmannConnection, VectorField, horizontal_frame
from .errors import ChartError, EhresmannError

__all__ = [
    "Multivector",
    "MForm",
    "base_volume_form",
    "representative",
    "contract",
    "is_transverse",
    "same_class",
]


@dataclass(frozen=True)
class Multivector:
    """Ordered factors X_1, ..., X_m of a decomposable m-multivector
    X_1 ^ ... ^ X_m on the bundle chart."""

    chart: BundleChart
    factors: tuple  # m VectorFields

    def __post_init__(self):
        if len(self.factors) != self.chart.m:
            raise ChartError(
                f"need {self.chart.m} factors, got {len(self.factors)}"
            )
        for factor in self.factors:
            if factor.chart != self.chart:
                raise ChartError("factors live on different charts")


@dataclass(frozen=True)
class MForm:
    """m-form as a sum of coefficient * (dz^{a_1} ^ ... ^ dz^{a_m}) terms;
    coordinates are named, so dx's and dy's mix freely."""

    chart: BundleChart
    terms: tuple  # ((coord names tuple), Expr) pairs

    def __post_init__(self):
        names = set(self.chart.coordinate_names)
        for coords, _ in self.terms:
            if len(coords) != self.chart.m:
                raise ChartError(f"form degree must be {self.chart.m}")
            unknown = set(coords) - names
            if unknown:
                raise ChartError(f"unknown coordinates in form: {sorted(unknown)}")


def base_volume_form(chart: BundleChart) -> MForm:
    """Pullback of the standard base volume dx^1 ^ ... ^ dx^m."""
    return MForm(chart, ((tuple(chart.base_names), ex.ONE),))


def representative(connection: EhresmannConnection) -> Multivector:
    """Wedge of the horizontal frame; spans the same distribution as the
    frame itself."""
    return Multivector(connection.chart, tuple(horizontal_frame(connection)))


def _component(field: VectorField, name):
    chart = field.chart
    if name in chart.base_names:
        return field.base_components[chart.base_names.index(name)]
    return field.fiber_components[chart.fiber_names.index(name)]


def _symbolic_det(matrix):
    """Leibniz expansion; matrices here are at most m x m with m small."""
    size = len(matrix)
    terms = []
    for perm in itertools.permutations(range(size)):
        sign = 1.0
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    sign = -sign
        factors = [ex.Const(sign)] + [matrix[r][perm[r]] for r in range(size)]
        terms.append(ex.Prod(tuple(factors)))
    return ex.normalize(ex.Sum(tuple(terms)))


def contract(mv: Multivector, omega: MForm) -> ex.Expr:
    """Pairing of the decomposable multivector with an m-form: for each form
    term, the determinant of factor components along its coordinates."""
    if mv.chart != omega.chart:
        raise ChartError("multivector and form live on different charts")
    total = []
    for coords, coefficient in omega.terms:
        matrix = [
            [_component(factor, name) for factor in mv.factors]
            for name in coords
        ]
        total.append(coefficient * _symbolic_det(matrix))
    return ex.normalize(ex.Sum(tuple(total)))


def is_transverse(mv: Multivector, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """True iff the pairing with the pulled-back base volume is nonvanishing
    at every probe point (sufficient on a single chart).  Points out of
    domain, or where the pairing is not finite, are redrawn as in
    :func:`expr.probe_values`."""
    pairing = contract(mv, base_volume_form(mv.chart))
    normalized = ex.normalize(pairing)
    if isinstance(normalized, ex.Const):
        return abs(normalized.value) > probe.tol
    names = mv.chart.coordinate_names
    values = ex.probe_values(ex._evaluate_scaled(normalized, names), names, probe)
    return all(abs(value) > probe.tol * (1.0 + scale) for value, scale in values)


def _det(matrix):
    """Determinant by LU elimination with partial pivoting."""
    a = [list(row) for row in matrix]
    size = len(a)
    det = 1.0
    for k in range(size):
        p = max(range(k, size), key=lambda r: abs(a[r][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for r in range(k + 1, size):
            f = a[r][k] / pivot
            for c in range(k + 1, size):
                a[r][c] -= f * a[k][c]
    return det


def _plucker(matrix):
    """Plücker coordinates of the rows of an m-row matrix: its m x m
    minors, columns taken in lexicographic order."""
    m = len(matrix)
    return [
        _det([[row[c] for c in columns] for row in matrix])
        for columns in itertools.combinations(range(len(matrix[0])), m)
    ]


def _wedge(matrix, tol):
    """Plücker coordinates of the factors' values at a point, one row per
    factor, with the bound prod |X_i| on their size (Hadamard) as the scale
    of the tolerance."""
    p = _plucker(matrix)
    scale = math.prod(math.hypot(*row) for row in matrix)
    if not (math.isfinite(scale) and all(map(math.isfinite, p))):
        raise ex.DomainError("non-finite multivector component")
    if max(map(abs, p)) <= tol * (1.0 + scale):
        raise EhresmannError("rank-deficient multivector representative")
    return p, scale


def same_class(
    mv1: Multivector,
    mv2: Multivector,
    probe: ex.ProbeConfig = ex.DEFAULT_PROBE,
) -> bool:
    """Probe-level class equivalence: at every probe point the Plücker
    coordinates q of ``mv2`` are f times those p of ``mv1``, and the factor
    f keeps one sign across points.  f is read off the largest |p|; a
    representative whose coordinates vanish at a point raises."""
    if mv1.chart != mv2.chart:
        raise ChartError("multivectors live on different charts")
    tol, m = probe.tol, mv1.chart.m
    names = mv1.chart.coordinate_names  # each factor has one component per name
    values = ex.compile_exprs(
        [c for mv in (mv1, mv2) for factor in mv.factors for c in factor.components], names
    )

    def at(bindings):
        flat = values(*bindings.values())
        rows = [flat[k:k + len(names)] for k in range(0, len(flat), len(names))]
        return _wedge(rows[:m], tol), _wedge(rows[m:], tol)

    pairs = ex.probe_values(at, names, probe)
    previous = 0.0
    for (p, _), (q, scale) in pairs:
        k = max(range(len(p)), key=lambda i: abs(p[i]))
        f = q[k] / p[k]
        if f * previous < 0.0 or any(abs(b - f * a) > tol * (1.0 + scale) for a, b in zip(p, q)):
            return False
        previous = f
    return True
