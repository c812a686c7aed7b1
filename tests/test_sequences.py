import math
import operator
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractree import sequences
from fractree.construct import build
from fractree.errors import BadParameterError, DomainViolationError
from fractree.params import Family, FractalParams
from fractree.sequences import (
    entropy_estimates,
    _exponent_sums,
    _exponent_sums_of,
    _recurrence_coefficients,
    QuadraticNumber,
    RecurrenceSpec,
    binet_vertex,
    binet_vertex_fixed_constants,
    entropy_closed,
    entropy_limit,
    entropy_surface_rows,
    size_sequences,
    tau_wheel_base,
    vertex_count,
)


class TestSizeSequences:
    def test_cycle_fixture(self):
        seq = size_sequences(FractalParams(Family.CYCLE, 3, 2), 5)
        assert seq.u == (1, 3, 12, 51, 219, 942)
        assert seq.e == (0, 3, 15, 66, 285, 1227)

    def test_wheel_fixture(self):
        seq = size_sequences(FractalParams(Family.WHEEL, 4, 2), 4)
        assert seq.u == (1, 5, 33, 221, 1481)
        assert seq.e == (0, 8, 56, 376, 2520)

    def test_strictly_increasing(self):
        seq = size_sequences(FractalParams(Family.WHEEL, 6, 3), 10)
        assert all(seq.u[j] < seq.u[j + 1] for j in range(1, 10))
        assert all(seq.e[j] < seq.e[j + 1] for j in range(1, 10))

    def test_built_graph_consistency(self):
        for family, n, m, i in [
            (Family.CYCLE, 3, 2, 2),
            (Family.CYCLE, 5, 3, 1),
            (Family.WHEEL, 4, 2, 2),
            (Family.WHEEL, 6, 2, 1),
        ]:
            p = FractalParams(family, n, m, i)
            g = build(p)
            seq = size_sequences(p, i + 1)
            assert g.vertex_count == seq.u[i + 1]
            assert g.edge_count == seq.e[i + 1]

    def test_coupled_equals_decoupled(self):
        for family in Family:
            for n in range(3, 9):
                for m in (2, 3, 4):
                    p = FractalParams(family, n, m)
                    spec = RecurrenceSpec.for_params(p)
                    u = size_sequences(p, 40).u
                    for j in range(2, 41):
                        assert u[j] == spec.a * u[j - 1] + spec.b * u[j - 2]

    def test_bad_upto(self):
        with pytest.raises(BadParameterError):
            size_sequences(FractalParams(Family.CYCLE, 3, 2), -1)

    def test_vertex_count_by_doubling(self):
        for family in Family:
            for n, m in [(3, 2), (3, 3), (4, 7), (9, 7)]:
                p = FractalParams(family, n, m)
                u = size_sequences(p, 40).u
                assert [vertex_count(p, j) for j in range(41)] == list(u)
        with pytest.raises(BadParameterError):
            vertex_count(FractalParams(Family.CYCLE, 3, 2), -1)


def _closed(p, k):
    """The closed-form exponent sums of ``p`` at k, as every caller reaches them."""
    return _exponent_sums_of(*_recurrence_coefficients(p.family, p.n, p.m), k)


class TestExponentSums:
    @pytest.mark.parametrize("family", list(Family))
    def test_equal_sums_over_size_sequences(self, family):
        for n, m in [(3, 2), (4, 3), (6, 2), (9, 7)]:
            p = FractalParams(family, n, m)
            for i in range(13):
                u = size_sequences(p, i + 1).u
                steps = list(_exponent_sums(p, i))
                assert len(steps) == i + 1
                for k, step in enumerate(steps):
                    s1 = sum(u[: k + 1])
                    s2 = sum((k - j) * u[j] for j in range(k + 1))
                    assert step == (s1, s2, u[k], u[k + 1])

    @pytest.mark.parametrize("family", list(Family))
    def test_closed_form_equals_running_sums(self, family):
        # every k up to 400, wheel-3-3 (b = 0) included
        for n in range(3, 13):
            for m in range(2, 9):
                p = FractalParams(family, n, m)
                steps = list(_exponent_sums(p, 400))
                for k in range(401):
                    assert _closed(p, k) == tuple(steps[max(k - 1, 0):k + 1])
        # deep k on either side of powers of two, where the doubling walk
        # takes its longest runs of set and clear bits; wheel-3-3 (b = 0,
        # d = 49) and wheel-4-7 (d = 196) have perfect-square discriminants
        deep = {4095, 4096, 4097, 511, 512, 513, 1024}
        cells = {Family.CYCLE: [(3, 2), (7, 3)], Family.WHEEL: [(3, 3), (4, 7), (5, 2)]}
        for n, m in cells[family]:
            p = FractalParams(family, n, m)
            u = size_sequences(p, max(deep) + 1).u
            previous = None
            for k, step in enumerate(_exponent_sums(p, max(deep))):
                if k in deep:
                    assert _closed(p, k) == (previous, step)
                    assert step[2] == u[k] == vertex_count(p, k)
                previous = step

    def test_closed_form_stays_integer(self):
        assert RecurrenceSpec.for_params(FractalParams(Family.WHEEL, 3, 3)).b == 0
        for step in _closed(FractalParams(Family.WHEEL, 9, 7), 60):
            assert all(type(x) is int for x in step)

    def test_non_integral_sums_are_refused(self, monkeypatch):
        # for any walk that is right the sums divide exactly (they restate
        # sum of u_j), so feed the core a wrong pair: (1, 1) is no
        # (U_{k-1}, U_k) of wheel-4-3 (a = 8, b = 1, u_1 = 5), and D = -8
        # does not divide the first sum it gives
        monkeypatch.setattr(sequences, "_fundamental_pair", lambda a, b, k: (1, 1))
        with pytest.raises(ArithmeticError, match="a=8, b=1, u1=5 at k=10 are not integers"):
            _exponent_sums_of(8, 1, 5, 10)


class TestQuadraticNumber:
    def test_arithmetic(self):
        x = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
        assert (x * x - x - 1).p == 0 and (x * x - x - 1).q == 0

    def test_division_roundtrip(self):
        x = QuadraticNumber(Fraction(3), Fraction(-2), 13)
        y = QuadraticNumber(Fraction(1), Fraction(5), 13)
        z = (x / y) * y
        assert z.p == x.p and z.q == x.q

    def test_pow(self):
        x = QuadraticNumber(Fraction(0), Fraction(1), 2)
        assert (x**4).p == 4 and (x**4).q == 0

    def test_as_exact_int(self):
        assert QuadraticNumber(Fraction(7), Fraction(0), 13).as_exact_int() == 7
        # perfect-square radicand: 2 + 3*sqrt(4) = 8
        assert QuadraticNumber(Fraction(2), Fraction(3), 4).as_exact_int() == 8
        with pytest.raises(ValueError):
            QuadraticNumber(Fraction(1), Fraction(1), 13).as_exact_int()

    def test_mixed_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadraticNumber(Fraction(0), Fraction(1), 2) + QuadraticNumber(
                Fraction(0), Fraction(1), 3
            )

    def test_division_by_zero_element(self):
        zero = QuadraticNumber(Fraction(0), Fraction(0), 5)
        with pytest.raises(ZeroDivisionError):
            QuadraticNumber(Fraction(1), Fraction(0), 5) / zero

    def test_division_by_zero_element_square_radicand(self):
        zero = QuadraticNumber(Fraction(2), Fraction(-1), 4)  # 2 - sqrt(4) = 0
        with pytest.raises(ZeroDivisionError):
            QuadraticNumber(Fraction(1), Fraction(0), 4) / zero
        with pytest.raises(ZeroDivisionError):
            1 / zero

    @pytest.mark.parametrize("n, m, d, root", [(3, 3, 49, 7), (4, 7, 196, 13)])
    def test_inverse_of_dominant_root_square_radicand(self, n, m, d, root):
        spec = RecurrenceSpec.for_params(FractalParams(Family.WHEEL, n, m))
        lam = spec.roots()[0]
        assert (spec.discriminant, lam.as_exact_int()) == (d, root)
        inverse = QuadraticNumber(Fraction(1, root), Fraction(0), d)
        assert QuadraticNumber(1, 0, d) / lam == inverse
        assert 1 / lam == inverse
        assert Fraction(1) / lam == inverse
        assert (1 / lam) * lam == QuadraticNumber(1, 0, d)

    def test_division_roundtrip_square_radicand(self):
        for d in (4, 49, 196):
            x = QuadraticNumber(Fraction(3, 5), Fraction(-2), d)
            y = QuadraticNumber(Fraction(1), Fraction(5, 7), d)
            assert (x / y) * y == x

    def test_reverse_division(self):
        x = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
        assert 1 / x == x - 1
        assert Fraction(3, 2) / x == (x - 1) * Fraction(3, 2)
        with pytest.raises(TypeError):
            1.0 / x


class TestQuadraticNumberGuards:
    X = QuadraticNumber(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio

    def test_float_coordinate_rejected(self):
        for p, q in ((1.5, 0), (0, 0.5)):
            with pytest.raises(TypeError, match="int or Fraction"):
                QuadraticNumber(p, q, 5)

    def test_attributes_cannot_be_deleted(self):
        for name in ("p", "_key"):
            with pytest.raises(AttributeError, match="immutable"):
                delattr(self.X, name)
        assert _coords(self.X) == (Fraction(1, 2), Fraction(1, 2))

    def test_pickle_round_trip(self):
        for x in (self.X, QuadraticNumber(Fraction(3, 5), Fraction(-2), 49)):
            assert pickle.loads(pickle.dumps(x)) == x

    def test_equal_only_to_quadratic_numbers(self):
        assert (QuadraticNumber(Fraction(3, 2), 0, 5) == 1.5) is False
        assert (self.X == "x") is False

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_str_operand_rejected(self, op):
        with pytest.raises(TypeError):
            op(self.X, "1")
        with pytest.raises(TypeError):
            op("1", self.X)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.X ** -1

    def test_as_exact_int_of_a_fraction(self):
        with pytest.raises(ValueError, match="not an integer"):
            QuadraticNumber(Fraction(1, 2), 0, 5).as_exact_int()

    def test_repr_evaluates_back(self):
        for x in (self.X, QuadraticNumber(-3, Fraction(2, 7), 13), QuadraticNumber(2, 3, 4)):
            assert eval(repr(x), {"QuadraticNumber": QuadraticNumber, "Fraction": Fraction}) == x


SMALL = st.fractions(min_value=-20, max_value=20, max_denominator=12)
RADICANDS = st.sampled_from([2, 3, 5, 13, 4, 49, 196])


def _ref(p, q, d):
    """(p, q) of p + q*sqrt(d) as Fractions, with sqrt(d) = r when d = r*r."""
    r = math.isqrt(d)
    return (p + q * r, Fraction(0)) if r * r == d else (Fraction(p), Fraction(q))


def _ref_mul(x, y, d):
    (p, q), (p2, q2) = x, y
    return p * p2 + q * q2 * d, p * q2 + q * p2


def _ref_div(x, y, d):
    (p, q), (p2, q2) = x, y
    norm = p2 * p2 - q2 * q2 * d
    return (p * p2 - q * q2 * d) / norm, (q * p2 - p * q2) / norm


def _coords(z):
    return z.p, z.q


class TestQuadraticNumberProperties:
    @settings(max_examples=100, deadline=None)
    @given(SMALL, SMALL, SMALL, SMALL, RADICANDS, st.integers(0, 8))
    def test_matches_fraction_reference(self, p, q, p2, q2, d, k):
        x, y = QuadraticNumber(p, q, d), QuadraticNumber(p2, q2, d)
        rx, ry = _ref(p, q, d), _ref(p2, q2, d)
        assert _coords(x) == rx
        assert _coords(x + y) == (rx[0] + ry[0], rx[1] + ry[1])
        assert _coords(x - y) == (rx[0] - ry[0], rx[1] - ry[1])
        assert _coords(x * y) == _ref_mul(rx, ry, d)
        assert _coords(x + p2) == _coords(p2 + x) == (rx[0] + p2, rx[1])
        assert _coords(p2 - x) == (p2 - rx[0], -rx[1])
        assert _coords(x * p2) == _coords(p2 * x) == (rx[0] * p2, rx[1] * p2)
        if ry == (0, 0):
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert _coords(x / y) == _ref_div(rx, ry, d)
            assert _coords(p / y) == _ref_div((p, Fraction(0)), ry, d)
        power = (Fraction(1), Fraction(0))
        for _ in range(k):
            power = _ref_mul(power, rx, d)
        assert _coords(x**k) == power

    @settings(max_examples=50, deadline=None)
    @given(SMALL, SMALL, SMALL, SMALL, st.sampled_from([2, 3, 5, 13]))
    def test_to_float_bit_identical(self, p, q, p2, q2, d):
        x = QuadraticNumber(p, q, d)
        assert x.to_float().hex() == (float(p) + float(q) * math.sqrt(d)).hex()
        pq = _ref_mul((p, q), (p2, q2), d)
        product = x * QuadraticNumber(p2, q2, d)
        assert product.to_float().hex() == (float(pq[0]) + float(pq[1]) * math.sqrt(d)).hex()

    @settings(max_examples=50, deadline=None)
    @given(SMALL, SMALL, SMALL, SMALL, RADICANDS)
    def test_equal_values_hash_equal(self, p, q, p2, q2, d):
        x, y = QuadraticNumber(p, q, d), QuadraticNumber(p2, q2, d)
        same = QuadraticNumber(*_ref(p, q, d), d)
        assert x == same and hash(x) == hash(same)
        if y != QuadraticNumber(0, 0, d):
            z = x * y / y
            assert z == x and hash(z) == hash(x)
        assert {x, same} == {x}

    @settings(max_examples=25)
    @given(SMALL, SMALL, RADICANDS)
    def test_immutable(self, p, q, d):
        x = QuadraticNumber(p, q, d)
        for name in ("p", "q", "d", "_key", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        assert _coords(x) == _ref(p, q, d)


class TestBinet:
    def test_fixture_values(self):
        assert binet_vertex(FractalParams(Family.CYCLE, 3, 2), 4) == 219
        assert binet_vertex(FractalParams(Family.WHEEL, 4, 2), 3) == 221
        assert binet_vertex(FractalParams(Family.WHEEL, 6, 4), 0) == 1

    def test_matches_recurrence_exactly(self):
        for family in Family:
            for n in range(3, 9):
                for m in (2, 3, 4):
                    p = FractalParams(family, n, m)
                    u = size_sequences(p, 40).u
                    for j in range(41):
                        assert binet_vertex(p, j) == u[j]

    def test_perfect_square_wheel_cells(self):
        # every wheel cell of n 3-64, m 2-64 whose discriminant is a square
        cells = 0
        for n in range(3, 65):
            for m in range(2, 65):
                p = FractalParams(Family.WHEEL, n, m)
                spec = RecurrenceSpec.for_params(p)
                if math.isqrt(spec.discriminant) ** 2 != spec.discriminant:
                    continue
                cells += 1
                assert [binet_vertex(p, j) for j in range(41)] == list(size_sequences(p, 40).u)
                lam = spec.roots()[0]
                assert (1 / lam) * lam == QuadraticNumber(1, 0, spec.discriminant)
        assert cells == 97

    def test_fixed_constants_match_for_cycles(self):
        p = FractalParams(Family.CYCLE, 3, 2)
        u = size_sequences(p, 10).u
        for j in range(11):
            assert binet_vertex_fixed_constants(p, j).as_exact_int() == u[j]

    def test_fixed_constants_fail_for_wheels_at_seed(self):
        p = FractalParams(Family.WHEEL, 4, 2)
        value = binet_vertex_fixed_constants(p, 0)
        assert value.to_float() == pytest.approx(0.3753049524455757, abs=1e-12)
        with pytest.raises(ValueError):
            value.as_exact_int()

    def test_negative_index_rejected(self):
        with pytest.raises(BadParameterError):
            binet_vertex(FractalParams(Family.CYCLE, 3, 2), -1)


def reference_entropy_limit(params, iters, same: bool):
    """(value, delta) from exact Fractions, re-summing S1 and S2 for every
    estimate, over u_k (offset stage) or u_{k+1} (``same`` stage): the
    formulation the one-pass entropy_estimates must reproduce bit for
    bit."""
    if params.family is Family.CYCLE:
        base_count, mult = params.n, 1
    else:
        base_count, mult = tau_wheel_base(params.n), params.n
    log_base = math.log(base_count)
    log_m = math.log(params.m)
    u = size_sequences(params, iters + 1).u

    def estimate(k: int) -> float:
        s1 = sum(u[: k + 1])
        s2 = sum((k - j) * u[j] for j in range(k + 1))
        denom = u[k + 1] if same else u[k]
        return float(Fraction(s1, denom)) * log_base + mult * float(
            Fraction(s2, denom)
        ) * log_m

    value = estimate(iters)
    return value, value - estimate(iters - 1)


class TestEntropyBitExact:
    @pytest.mark.parametrize(
        "same", [pytest.param(False, id="offset_stage"), pytest.param(True, id="same_stage")]
    )
    @pytest.mark.parametrize("iters", [2, 3, 60, 400])
    @pytest.mark.parametrize("family", list(Family))
    def test_limit_matches_fraction_reference(self, family, iters, same):
        for n in range(3, 10):
            for m in range(2, 10):
                p = FractalParams(family, n, m)
                est = entropy_estimates(p, iters)[same]
                value, delta = reference_entropy_limit(p, iters, same)
                assert (est.value.hex(), est.delta.hex()) == (value.hex(), delta.hex())

    @pytest.mark.parametrize("iters", [2, 60, 400])
    @pytest.mark.parametrize("family", list(Family))
    def test_one_pass_pair_matches_fraction_reference(self, family, iters):
        for n, m in [(3, 2), (4, 3), (7, 5), (9, 9)]:
            p = FractalParams(family, n, m)
            pair = entropy_estimates(p, iters)
            for est, same in zip(pair, (False, True)):
                value, delta = reference_entropy_limit(p, iters, same)
                assert (est.value.hex(), est.delta.hex()) == (value.hex(), delta.hex())

    @pytest.mark.parametrize("family", list(Family))
    def test_surface_matches_fraction_reference(self, family):
        rows = entropy_surface_rows(family, range(3, 10), range(2, 10))
        assert [r[:2] for r in rows] == [(n, m) for n in range(3, 10) for m in range(2, 10)]
        for n, m, offset, same, closed in rows:
            p = FractalParams(family, n, m)
            want_offset, _ = reference_entropy_limit(p, 60, False)
            want_same, _ = reference_entropy_limit(p, 60, True)
            assert (offset.hex(), same.hex()) == (want_offset.hex(), want_same.hex())
            if family is Family.CYCLE and n <= m:
                assert closed is None
            else:
                assert closed == entropy_closed(p)

    @pytest.mark.parametrize("family", list(Family))
    def test_surface_matches_one_cell_functions(self, family):
        # the surface has its own loop; every cell of the CLI's domain
        rows = entropy_surface_rows(family, range(3, 65), range(2, 65))
        assert [r[:2] for r in rows] == [(n, m) for n in range(3, 65) for m in range(2, 65)]
        for n, m, offset, same, closed in rows:
            p = FractalParams(family, n, m)
            want_offset, want_same = (est.value for est in entropy_estimates(p))
            assert (offset.hex(), same.hex()) == (want_offset.hex(), want_same.hex())
            try:
                want_closed = entropy_closed(p)
            except DomainViolationError:
                assert closed is None
            else:
                assert closed.hex() == want_closed.hex()


class TestEntropy:
    def test_published_cycle_values(self):
        p = FractalParams(Family.CYCLE, 3, 2)
        t0 = time.perf_counter()
        offset, same = entropy_estimates(p, 60)
        assert entropy_closed(p) == pytest.approx(offset.value, abs=1e-6)
        assert time.perf_counter() - t0 < 1.0
        assert offset.value == pytest.approx(1.70465, abs=1e-4)
        assert same.value == pytest.approx(0.396176, abs=1e-4)
        assert abs(offset.delta) < 1e-12
        assert entropy_limit(p) == offset

    def test_wheel_limit(self):
        est = entropy_limit(FractalParams(Family.WHEEL, 4, 2))
        assert est.value == pytest.approx(5.045890769576678, abs=1e-9)
        assert abs(est.delta) < 1e-9

    def test_convention_ratio_tends_to_dominant_root(self):
        for p in (FractalParams(Family.CYCLE, 3, 2), FractalParams(Family.WHEEL, 4, 2)):
            offset, same = (est.value for est in entropy_estimates(p, 60))
            root = RecurrenceSpec.for_params(p).roots()[0].to_float()
            assert offset / same == pytest.approx(root, abs=1e-6)

    def test_deltas_shrink_geometrically(self):
        p = FractalParams(Family.CYCLE, 3, 2)
        deltas = [abs(entropy_estimates(p, k)[0].delta) for k in range(4, 13)]
        for k in range(len(deltas) - 1):
            # each iteration at least halves the delta (the asymptotic
            # factor is the dominant root, approached from below)
            assert deltas[k + 1] <= deltas[k] / 2
        assert deltas[-1] < 1e-6
        # stable to 10+ significant digits by 60 iterations
        assert entropy_estimates(p, 60)[0].value == pytest.approx(
            entropy_estimates(p, 50)[0].value, abs=1e-10
        )

    def test_closed_matches_limit_for_cycles(self):
        for n, m in [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (7, 4)]:
            p = FractalParams(Family.CYCLE, n, m)
            assert entropy_closed(p) == pytest.approx(entropy_limit(p).value, abs=1e-6)

    def test_closed_cycle_published_value(self):
        assert entropy_closed(FractalParams(Family.CYCLE, 3, 2)) == pytest.approx(
            1.70465, abs=1e-4
        )

    def test_cycle_domain_violation(self):
        with pytest.raises(DomainViolationError):
            entropy_closed(FractalParams(Family.CYCLE, 3, 3))
        with pytest.raises(DomainViolationError):
            entropy_closed(FractalParams(Family.CYCLE, 3, 4))

    def test_wheel_closed_disagrees_with_limit(self):
        p = FractalParams(Family.WHEEL, 4, 2)
        closed = entropy_closed(p)
        assert closed == pytest.approx(33.81209021557514, abs=1e-6)
        assert abs(closed - entropy_limit(p).value) > 1

    def test_iters_validation(self):
        with pytest.raises(BadParameterError):
            entropy_estimates(FractalParams(Family.CYCLE, 3, 2), 1)

    def test_surface_rows(self):
        rows = entropy_surface_rows(Family.CYCLE, range(3, 7), range(2, 5))
        assert len(rows) == 12
        assert [r[:2] for r in rows] == [(n, m) for n in range(3, 7) for m in range(2, 5)]
        first = rows[0]
        assert first[2] == pytest.approx(1.7046563462774051, abs=1e-9)
        assert first[4] == pytest.approx(first[2], abs=1e-6)
        # closed form undefined when n <= m
        undefined = [r for r in rows if r[0] <= r[1]]
        assert undefined and all(r[4] is None for r in undefined)

    def test_surface_edges(self):
        # past n = 737 the wheel formula's n-terms leave float range at every m
        rows = entropy_surface_rows(Family.WHEEL, range(800, 801), range(2, 4))
        assert [r[4] for r in rows] == [None, None]
        with pytest.raises(DomainViolationError):
            entropy_closed(FractalParams(Family.WHEEL, 800, 2))
        for n_range, m_range in [(range(2, 4), range(2, 3)), (range(3, 4), range(1, 3)),
                                 ([3, True], [2]), ([3], [2, 2.0])]:
            with pytest.raises(BadParameterError):
                entropy_surface_rows(Family.CYCLE, n_range, m_range)

    def test_deep_iteration_no_overflow(self):
        # exact-ratio evaluation keeps working far beyond float range
        est = entropy_estimates(FractalParams(Family.WHEEL, 4, 2), 500)[0]
        assert math.isfinite(est.value)
        assert est.value == pytest.approx(5.045890769576678, abs=1e-9)
