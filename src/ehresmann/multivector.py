"""Decomposable multivector representatives of connections.

A connection determines (up to a nonvanishing factor) the wedge of its
horizontal frame; this module builds that representative, contracts it with
m-forms, and decides transversality and class equivalence at probe points.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from . import expr as ex
from .bundle import BundleChart
from .connection import EhresmannConnection, VectorField, horizontal_frame
from .errors import ChartError, EhresmannError, UnprobeableError

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


def _probe_bindings(chart, probe):
    rng = probe.rng()
    names = chart.coordinate_names
    for _ in range(probe.points):
        yield {name: rng.uniform(probe.low, probe.high) for name in names}


def is_transverse(mv: Multivector, probe: ex.ProbeConfig = ex.DEFAULT_PROBE) -> bool:
    """True iff the pairing with the pulled-back base volume is nonvanishing
    at every probe point (sufficient on a single chart).  Points out of
    domain, or where the pairing is not finite, are skipped; with none
    left the check raises :class:`UnprobeableError`."""
    pairing = contract(mv, base_volume_form(mv.chart))
    normalized = ex.normalize(pairing)
    if isinstance(normalized, ex.Const):
        return abs(normalized.value) > probe.tol
    probed = 0
    for bindings in _probe_bindings(mv.chart, probe):
        try:
            value, scale = ex._probe_value(normalized, bindings)
        except ex.DomainError:
            continue
        if abs(value) <= probe.tol * (1.0 + scale):
            return False
        probed += 1
    if not probed:
        raise UnprobeableError(f"no valid probe point among {probe.points}")
    return True


def _factor_matrix(mv: Multivector, bindings):
    return [[ex.evaluate(c, bindings) for c in factor.components] for factor in mv.factors]


_JACOBI_SWEEPS = 40
_JACOBI_EPS = 1e-15


def _singular_values(matrix):
    """Singular values by one-sided Jacobi: rotate pairs of columns of the
    narrower orientation until they are orthogonal; the column norms are
    then the singular values."""
    columns = [list(column) for column in zip(*matrix)]
    if len(columns) > len(matrix):
        columns = [list(row) for row in matrix]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i, j in itertools.combinations(range(len(columns)), 2):
            u, v = columns[i], columns[j]
            alpha, beta, gamma = _dot(u, u), _dot(v, v), _dot(u, v)
            if abs(gamma) <= _JACOBI_EPS * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            columns[i] = [c * a - s * b for a, b in zip(u, v)]
            columns[j] = [s * a + c * b for a, b in zip(u, v)]
        if not rotated:
            break
    return sorted((math.sqrt(_dot(column, column)) for column in columns), reverse=True)


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _rank(matrix, tol):
    """Number of singular values above ``tol``."""
    return sum(value > tol for value in _singular_values(matrix))


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


def _minor(matrix, columns):
    return [[row[c] for c in columns] for row in matrix]


def same_class(
    mv1: Multivector,
    mv2: Multivector,
    probe: ex.ProbeConfig = ex.DEFAULT_PROBE,
) -> bool:
    """Probe-level class equivalence: equal spans at every probe point and a
    proportionality factor between the wedges that never vanishes and keeps
    a constant sign."""
    if mv1.chart != mv2.chart:
        raise ChartError("multivectors live on different charts")
    chart = mv1.chart
    m = chart.m
    columns = None
    previous_sign = 0
    for bindings in _probe_bindings(chart, probe):
        A = _factor_matrix(mv1, bindings)
        B = _factor_matrix(mv2, bindings)
        if _rank(A, tol=1e-10) < m or _rank(B, tol=1e-10) < m:
            raise EhresmannError("rank-deficient multivector representative")
        if _rank(A + B, tol=1e-8) > m:
            return False
        if columns is None:
            # fix, once, an m-column minor where the first wedge is robustly
            # nonsingular; its ratio tracks the proportionality factor
            best, best_value = None, 0.0
            for cols in itertools.combinations(range(len(A[0])), m):
                value = abs(_det(_minor(A, cols)))
                if value > best_value:
                    best, best_value = cols, value
            columns = best
        det1 = _det(_minor(A, columns))
        det2 = _det(_minor(B, columns))
        if abs(det1) < 1e-12:
            raise EhresmannError("degenerate minor while comparing classes")
        ratio = det2 / det1
        if abs(ratio) <= probe.tol * (1.0 + abs(det1) + abs(det2)):
            return False
        sign = 1 if ratio > 0 else -1
        if previous_sign and sign != previous_sign:
            return False
        previous_sign = sign
    return True
