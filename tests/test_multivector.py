"""Decomposable multivector representatives and their class calculus."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ehresmann import expr as ex
from ehresmann import multivector as mvec
from ehresmann.bundle import BundleChart
from ehresmann.connection import EhresmannConnection, VectorField, horizontal_frame
from ehresmann.errors import ChartError, EhresmannError, UnprobeableError
from ehresmann.multivector import (
    MForm,
    Multivector,
    base_volume_form,
    contract,
    is_transverse,
    representative,
    same_class,
)

from conftest import random_connection


def _connection(m, n, rows):
    chart = BundleChart.standard(m, n)
    return EhresmannConnection(chart, tuple(tuple(ex.parse(s) for s in row) for row in rows))


def _basis_field(chart, name):
    return VectorField(
        chart,
        tuple(ex.ONE if b == name else ex.ZERO for b in chart.base_names),
        tuple(ex.ONE if f == name else ex.ZERO for f in chart.fiber_names),
    )


class TestContract:
    def test_canonical_pairing(self):
        # (d/dx1 ^ d/dx2) paired with dx1 ^ dx2 is +1
        chart = BundleChart.standard(2, 1)
        mv = Multivector(chart, (_basis_field(chart, "x1"), _basis_field(chart, "x2")))
        assert ex.is_zero(contract(mv, base_volume_form(chart)) - ex.ONE)

    def test_antisymmetric_in_factors(self):
        chart = BundleChart.standard(2, 1)
        a, b = _basis_field(chart, "x1"), _basis_field(chart, "x2")
        omega = base_volume_form(chart)
        flipped = contract(Multivector(chart, (b, a)), omega)
        assert ex.is_zero(flipped + ex.ONE)

    def test_antisymmetric_in_form(self):
        chart = BundleChart.standard(2, 1)
        mv = Multivector(chart, (_basis_field(chart, "x1"), _basis_field(chart, "x2")))
        omega = MForm(chart, ((("x2", "x1"), ex.ONE),))
        assert ex.is_zero(contract(mv, omega) + ex.ONE)

    def test_repeated_factor_vanishes(self):
        chart = BundleChart.standard(2, 1)
        a = _basis_field(chart, "x1")
        assert ex.is_zero(contract(Multivector(chart, (a, a)), base_volume_form(chart)))

    def test_multilinear(self):
        chart = BundleChart.standard(2, 1)
        a, b = _basis_field(chart, "x1"), _basis_field(chart, "x2")
        omega = base_volume_form(chart)
        scaled = contract(Multivector(chart, (a.scale(ex.parse("x2")), b)), omega)
        assert ex.is_zero(scaled - ex.parse("x2"))

    def test_mixed_coordinates(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        rep = representative(conn)
        omega = MForm(conn.chart, ((("x1", "y1"), ex.ONE),))
        # det over rows (x1, y1): picks out Gamma^1_2
        assert ex.is_zero(contract(rep, omega) - ex.parse("x1 * y1"))

    def test_degree_checked(self):
        chart = BundleChart.standard(2, 1)
        with pytest.raises(ChartError):
            MForm(chart, ((("x1",), ex.ONE),))
        with pytest.raises(ChartError):
            MForm(chart, ((("x1", "q"), ex.ONE),))


class TestRepresentative:
    def test_volume_pairing_is_one(self):
        # the base block of the horizontal frame is the identity
        rng = random.Random(3)
        for _ in range(5):
            conn = random_connection(rng, rng.randint(1, 3), rng.randint(1, 2))
            rep = representative(conn)
            assert ex.is_zero(contract(rep, base_volume_form(conn.chart)) - ex.ONE)
            assert is_transverse(rep)

    def test_factors_are_frame(self):
        conn = _connection(2, 1, [["y1", "0"]])
        rep = representative(conn)
        frame = horizontal_frame(conn)
        assert rep.factors == tuple(frame)


class TestTransverse:
    def test_degenerate_not_transverse(self):
        chart = BundleChart.standard(2, 1)
        a = _basis_field(chart, "x1")
        assert not is_transverse(Multivector(chart, (a, a)))

    def test_vertical_factor_not_transverse(self):
        chart = BundleChart.standard(2, 1)
        mv = Multivector(chart, (_basis_field(chart, "x1"), _basis_field(chart, "y1")))
        assert not is_transverse(mv)

    def test_below_tolerance_not_transverse(self):
        chart = BundleChart.standard(2, 1)
        mv = Multivector(
            chart,
            (_basis_field(chart, "x1"), _basis_field(chart, "x2").scale(1e-12)),
        )
        assert not is_transverse(mv)

    def test_no_valid_probe_point_is_unprobeable(self):
        # log of a negative quantity is defined nowhere: no point can vouch
        chart = BundleChart.standard(1, 1)
        field = VectorField(chart, (ex.parse("log(-1 - x1^2)"),), (ex.ZERO,))
        with pytest.raises(UnprobeableError):
            is_transverse(Multivector(chart, (field,)))

    def test_out_of_domain_point_is_redrawn(self):
        # the pairing x1^0.5 + 1 is defined for x1 >= 0 only, and the one
        # point of this policy is first drawn at x1 < 0
        chart = BundleChart.standard(1, 1)
        field = VectorField(chart, (ex.parse("x1^0.5 + 1"),), (ex.ZERO,))
        seed = next(s for s in range(100) if ex.ProbeConfig(seed=s).rng().uniform(-2, 2) < 0)
        assert is_transverse(Multivector(chart, (field,)), ex.ProbeConfig(points=1, seed=seed))

    def test_overflowing_pairing_is_unprobeable(self):
        # the pairing overflows at every probe point; inf proves nothing
        chart = BundleChart.standard(1, 1)
        field = VectorField(chart, (ex.parse("10^300 * (x1^2 + 2)^200"),), (ex.ZERO,))
        with pytest.raises(UnprobeableError):
            is_transverse(Multivector(chart, (field,)))


class TestSameClass:
    def test_rescaled_is_same_class(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        rep = representative(conn)
        scaled = Multivector(
            conn.chart, (rep.factors[0].scale(2.0), rep.factors[1])
        )
        assert same_class(rep, scaled)

    def test_regrouped_frame_is_same_class(self):
        # adding a multiple of one factor to another preserves the wedge
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        rep = representative(conn)
        mixed = Multivector(
            conn.chart,
            (rep.factors[0] + rep.factors[1].scale(ex.parse("x2")), rep.factors[1]),
        )
        assert same_class(rep, mixed)

    def test_different_connection_not_same_class(self):
        a = representative(_connection(2, 1, [["y1", "x1 * y1"]]))
        b = representative(_connection(2, 1, [["0", "0"]]))
        assert not same_class(a, b)

    def test_rank_deficient_raises(self):
        chart = BundleChart.standard(2, 1)
        a = _basis_field(chart, "x1")
        degenerate = Multivector(chart, (a, a))
        good = representative(_connection(2, 1, [["0", "0"]]))
        with pytest.raises(EhresmannError):
            same_class(degenerate, good)

    def test_self_is_same_class(self):
        # the largest minor moves between points (x1^20 spans 1e-20..1e6);
        # a minor fixed at the first point used to read as degenerate
        rep = representative(_connection(2, 1, [["x1^20", "0"]]))
        assert same_class(rep, rep)
        # the first minor (x1, x2) vanishes everywhere on this frame
        chart = rep.chart
        tilted = _basis_field(chart, "x1") + _basis_field(chart, "x2")
        mv = Multivector(chart, (tilted, tilted + _basis_field(chart, "y1")))
        assert same_class(mv, mv)

    def test_sign_changing_factor_not_same_class(self):
        conn = _connection(2, 1, [["y1", "x1 * y1"]])
        rep = representative(conn)
        scaled = Multivector(
            conn.chart, (rep.factors[0].scale(ex.parse("x1")), rep.factors[1])
        )
        assert not same_class(rep, scaled)

    def test_chart_mismatch(self):
        a = representative(_connection(2, 1, [["0", "0"]]))
        b = representative(_connection(2, 2, [["0", "0"], ["0", "0"]]))
        with pytest.raises(ChartError):
            same_class(a, b)


class TestConstruction:
    def test_factor_count_checked(self):
        chart = BundleChart.standard(2, 1)
        with pytest.raises(ChartError):
            Multivector(chart, (_basis_field(chart, "x1"),))


def _low_rank(rng, rows, cols, rank, scale=1.0):
    left = [[rng.uniform(-2, 2) for _ in range(rank)] for _ in range(rows)]
    right = [[scale * rng.uniform(-2, 2) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b[c] for a, b in zip(row, right)) for c in range(cols)] for row in left]


def _const_frame(rows):
    """Multivector on BundleChart.standard(m, n) whose i-th factor has the
    constant components rows[i]."""
    m = len(rows)
    chart = BundleChart.standard(m, len(rows[0]) - m)
    factors = tuple(
        VectorField(chart, tuple(map(ex.Const, row[:m])), tuple(map(ex.Const, row[m:])))
        for row in rows
    )
    return Multivector(chart, factors)


def _leibniz(matrix):
    """Every term of the Leibniz expansion, zero entries included."""
    terms = []
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        entries = [row[c] for row, c in zip(matrix, perm)]
        terms.append(ex.Prod((ex.Const((-1.0) ** inversions), *entries)))
    return ex.Sum(tuple(terms))


class TestLinearAlgebra:
    """The symbolic determinant behind ``contract`` and the minors that
    ``same_class`` evaluates, against numpy (a test dependency only)."""

    def test_det_matches_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(23)
        for _ in range(300):
            size = rng.randint(1, 5)
            rank = rng.choice([size, size, rng.randint(0, size)])
            matrix = _low_rank(rng, size, size, rank)
            det = mvec._symbolic_det([[ex.Const(float(v)) for v in row] for row in matrix])
            (value,) = ex.compile_exprs([det], [])()
            expected = np.linalg.det(np.array(matrix, dtype=float).reshape(size, size))
            # the Leibniz sum rounds each of its terms, bounded by the permanent
            bound = math.prod(sum(map(abs, row)) for row in matrix)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-13 * bound)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_plucker_scales_by_det(self, data):
        # Cauchy-Binet: the minors of M.A are det(M) times those of A
        def minors(rows):
            mv = _const_frame(rows)
            columns = itertools.combinations(mv.chart.coordinate_names, len(rows))
            return ex.compile_exprs([mvec._minor(mv, c) for c in columns], [])()

        assert minors([[1.0, 0.0, 3.0], [0.0, 1.0, 5.0]]) == [1.0, 5.0, -3.0]
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))  # a chart has a fiber
        entries = st.floats(-2.0, 2.0)
        A = [[data.draw(entries) for _ in range(m + n)] for _ in range(m)]
        M = [[data.draw(entries) for _ in range(m)] for _ in range(m)]
        (det,) = ex.compile_exprs([mvec._symbolic_det([list(map(ex.Const, r)) for r in M])], [])()
        assume(abs(det) > 1e-3)
        MA = [[sum(M[r][k] * A[k][c] for k in range(m)) for c in range(m + n)] for r in range(m)]
        expected = [det * p for p in minors(A)]
        assert len(expected) == math.comb(m + n, m)
        assert minors(MA) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_zero_entries_keep_the_normal_form(self, size):
        # leaving out the terms that pick a literal zero changes no normal
        # form, whichever zeros the matrix holds
        rng = random.Random(size)
        pool = [ex.ZERO, ex.Const(-0.0), ex.ONE, ex.Const(2.5), ex.parse("x1"),
                ex.parse("x1 * y1 - 1"), ex.parse("sin(x2)"), ex.parse("y1^2")]
        for _ in range(40):
            matrix = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            det = mvec._symbolic_det(matrix)
            assert not any(
                isinstance(f, ex.Const) and f.value == 0.0 for t in det.terms for f in t.factors
            )
            assert repr(ex.normalize(det)) == repr(ex.normalize(_leibniz(matrix)))
