"""Exact integer sequences: sizes, Lucas numbers, tree-count exponents, entropy.

The vertex/edge counts of both families satisfy coupled first-order
recurrences that decouple into a single second-order linear recurrence.
Closed-form (Binet) evaluation is done exactly in the quadratic field
Q(sqrt(d)), on integer coordinates over one denominator (a perfect-square
d is folded into the rational part), with coefficients re-derived from
the seed values; the fixed constant expressions that are usually quoted
for the wheel family fail at j = 0 and are kept only for cross-check
reports.

Index convention: u[j] and e[j] are seeded with u[0] = 1, e[0] = 0 (a
single bare vertex), so the stage-i graph has u[i+1] vertices and e[i+1]
edges.

ln tau(G^(k)) = S1(k)*ln(base) + mult*S2(k)*ln(m), where
:func:`_tau_terms`, for ``spanning.tau_closed`` and every entropy
estimate, gives one base copy's tree count (n, or L_2n - 2 for a wheel,
from the Lucas numbers kept here) and its cycle rank (1 or n).  The
exponents S1(k) = sum of u_j and S2(k) = sum of (k-j)*u_j over j <= k
have two exact routes.  :func:`_exponent_sums_of` reaches u_k by index
doubling (O(log k) integer products) and sums the recurrence in closed
form, on plain ints; it serves every hot path.  ``tau_closed`` and the
entropy estimates call it through :func:`_exponent_sums_closed`, which
takes a :class:`FractalParams`, and the entropy surface calls it once per
(n, m) cell.  :func:`_exponent_sums` keeps running sums over
:func:`size_sequences`, and stays as the reference that ``verify`` and
the tests compare against.

The recurrence's coefficients (a, b, u_1) are stated once, in
:func:`_recurrence_coefficients`, for :class:`RecurrenceSpec` and the
surface alike.  The explicit entropy formulas are stated once too, as
their terms in n alone (:func:`_entropy_closed_n_terms`) and the rest
(:func:`_entropy_closed_floats`); :func:`entropy_closed` composes the
two, and the surface takes the n-terms once per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameterError, DomainViolationError, OverflowCapError
from .params import Family, FractalParams


class QuadraticNumber:
    """Exact element (a + b*sqrt(d)) / c of a real quadratic field.

    The coordinates are plain integers over one denominator, kept reduced:
    c > 0 and gcd(a, b, c) = 1, so equal values have equal coordinates and
    every operator is a few integer products and one gcd.  When d = r*r is
    a perfect square, b*r is folded into a (so b = 0): the value is kept
    and every nonzero element has an inverse.  The constructor takes the
    rational coordinates of p + q*sqrt(d) as ints or Fractions, and ``p``
    and ``q`` give them back as Fractions.  Instances are immutable.
    """

    __slots__ = ("_key",)

    def __new__(cls, p, q, d: int):
        if not isinstance(p, (int, Fraction)) or not isinstance(q, (int, Fraction)):
            raise TypeError("coordinates must be int or Fraction")
        c = math.lcm(p.denominator, q.denominator)
        return _quadratic(p.numerator * (c // p.denominator),
                          q.numerator * (c // q.denominator), c, d)

    @property
    def p(self) -> Fraction:
        a, _, c, _ = self._key
        return Fraction(a, c)

    @property
    def q(self) -> Fraction:
        _, b, c, _ = self._key
        return Fraction(b, c)

    @property
    def d(self) -> int:
        return self._key[3]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return QuadraticNumber, (self.p, self.q, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def _coords(self, other):
        # (a, b, c) of the other operand over this d; None if it is no number
        if isinstance(other, QuadraticNumber):
            a, b, c, d = other._key
            if d != self._key[3]:
                raise ValueError("mixed radicands")
            return a, b, c
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def _plus(self, a2: int, b2: int, c2: int) -> "QuadraticNumber":
        a, b, c, d = self._key
        return _new(a * c2 + a2 * c, b * c2 + b2 * c, c * c2, d)

    def __add__(self, other):
        y = self._coords(other)
        return NotImplemented if y is None else self._plus(*y)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d = self._key
        return _new(-a, -b, c, d)

    def __sub__(self, other):
        y = self._coords(other)
        if y is None:
            return NotImplemented
        a2, b2, c2 = y
        return self._plus(-a2, -b2, c2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        y = self._coords(other)
        if y is None:
            return NotImplemented
        a, b, c, d = self._key
        a2, b2, c2 = y
        return _new(a * a2 + b * b2 * d, a * b2 + b * a2, c * c2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # x / y = x * conj(y) * c_y / norm(y), with norm(y) = a_y^2 - b_y^2 * d
        # nonzero for y != 0, since squares of d are folded
        y = self._coords(other)
        if y is None:
            return NotImplemented
        a, b, c, d = self._key
        a2, b2, c2 = y
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        return _new((a * a2 - b * b2 * d) * c2, (b * a2 - a * b2) * c2, c * norm, d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _new(other.numerator, 0, other.denominator, self._key[3]) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        a, b, c, d = self._key
        ra, rb, rc = 1, 0, 1
        while k:
            if k & 1:
                ra, rb, rc = ra * a + rb * b * d, ra * b + rb * a, rc * c
            k >>= 1
            if k:
                a, b, c = a * a + b * b * d, 2 * a * b, c * c
        return _new(ra, rb, rc, d)

    def to_float(self) -> float:
        # int/int true division is correctly rounded, so a/c and b/c are the
        # floats of p and q
        a, b, c, d = self._key
        return a / c + (b / c) * math.sqrt(d)

    def as_exact_int(self) -> int:
        """The value as an integer; raises if it is not one."""
        a, b, c, _ = self._key
        if b:
            raise ValueError(f"{self} is irrational")
        if c != 1:
            raise ValueError(f"{self} is not an integer")
        return a

    def __str__(self):
        return f"{self.p} + {self.q}*sqrt({self.d})"

    def __repr__(self):
        return f"QuadraticNumber({self.p!r}, {self.q!r}, {self.d})"


def _new(a: int, b: int, c: int, d: int) -> QuadraticNumber:
    # reduced to c > 0 and gcd(a, b, c) = 1; an operator's result needs no
    # fold, since its operands are folded already
    g = math.gcd(a, b, c)
    if c < 0:
        g = -g
    if g != 1:
        a, b, c = a // g, b // g, c // g
    x = object.__new__(QuadraticNumber)
    object.__setattr__(x, "_key", (a, b, c, d))
    return x


def _quadratic(a: int, b: int, c: int, d: int) -> QuadraticNumber:
    """(a + b*sqrt(d)) / c from integers, with no Fraction.

    A square d = r*r is folded in as (a + b*r) / c, so no nonzero element
    has norm 0.
    """
    if d >= 0:
        root = math.isqrt(d)
        if root * root == d:
            a, b = a + b * root, 0
    return _new(a, b, c, d)


def lucas_number(k: int) -> int:
    """L_k with L_1 = 1, L_2 = 3 (L_0 = 2)."""
    if k < 0:
        raise BadParameterError("index must be >= 0")
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fibonacci_number(k: int) -> int:
    """F_k with F_1 = F_2 = 1 (F_0 = 0)."""
    if k < 0:
        raise BadParameterError("index must be >= 0")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def tau_wheel_base(n: int) -> int:
    """Spanning trees of the wheel W_n: L_{2n} - 2."""
    if n < 3:
        raise BadParameterError(f"wheel needs n >= 3, got {n}")
    return lucas_number(2 * n) - 2


def _tau_terms(family: Family, n: int) -> tuple:
    """(base, mult) with ln tau(G^(k)) = S1(k)*ln(base) + mult*S2(k)*ln(m):
    base is the spanning-tree count of one base copy (n for C_n, L_2n - 2
    for W_n) and mult its cycle rank (1 for C_n, n for W_n)."""
    if family is Family.CYCLE:
        return n, 1
    return tau_wheel_base(n), n


@dataclass(frozen=True)
class SizeSequences:
    """Exact u (vertex) and e (edge) count sequences up to a given index."""

    u: tuple
    e: tuple


def size_sequences(params: FractalParams, upto: int) -> SizeSequences:
    """u[0..upto] and e[0..upto] from the coupled growth recurrences."""
    if upto < 0:
        raise BadParameterError("upto must be >= 0")
    # u_j = vr*u_{j-1} + (m-1)*e_{j-1};  e_j = er*u_{j-1} + m*e_{j-1}
    n, m = params.n, params.m
    vr, er = (n, n) if params.family is Family.CYCLE else (n + 1, 2 * n)
    u = [1]
    e = [0]
    for _ in range(upto):
        u.append(vr * u[-1] + (m - 1) * e[-1])
        e.append(er * u[-2] + m * e[-1])
    return SizeSequences(tuple(u), tuple(e))


def _recurrence_coefficients(family: Family, n: int, m: int) -> tuple:
    """(a, b, u_1) of the decoupled vertex recurrence
    u_j = a*u_{j-1} + b*u_{j-2}, with u_0 = 1."""
    if family is Family.CYCLE:
        return n + m, -n, n
    return n + m + 1, m * n - m - 2 * n, n + 1


@dataclass(frozen=True)
class RecurrenceSpec:
    """Decoupled second-order recurrence x_j = a*x_{j-1} + b*x_{j-2}."""

    a: int
    b: int
    discriminant: int
    u0: int
    u1: int

    @classmethod
    def for_params(cls, params: FractalParams) -> "RecurrenceSpec":
        a, b, u1 = _recurrence_coefficients(params.family, params.n, params.m)
        return cls(a, b, a * a + 4 * b, 1, u1)

    def roots(self) -> tuple:
        d = self.discriminant
        return _quadratic(self.a, 1, 2, d), _quadratic(self.a, -1, 2, d)

    def binet_coefficients(self) -> tuple:
        """Coefficients (A, B) with x_j = A*r+^j + B*r-^j, from the seeds."""
        plus, minus = self.roots()
        sqrt_d = _quadratic(0, 1, 1, self.discriminant)
        coeff_plus = (self.u1 - minus * self.u0) / sqrt_d
        coeff_minus = self.u0 - coeff_plus
        return coeff_plus, coeff_minus


def binet_vertex(params: FractalParams, j: int) -> int:
    """Closed-form u_j, exact; always equals the recurrence value."""
    if j < 0:
        raise BadParameterError("index must be >= 0")
    spec = RecurrenceSpec.for_params(params)
    plus, minus = spec.roots()
    coeff_plus, coeff_minus = spec.binet_coefficients()
    return (coeff_plus * plus**j + coeff_minus * minus**j).as_exact_int()


def binet_vertex_fixed_constants(params: FractalParams, j: int) -> QuadraticNumber:
    """Closed-form u_j using the fixed constant expressions, exactly.

    For the cycle family this agrees with :func:`binet_vertex`.  For the
    wheel family the constant (z - a2 + 1) makes the expression fail
    already at j = 0; it is evaluated verbatim here so cross-check reports
    can quantify the disagreement.
    """
    n, m = params.n, params.m
    spec = RecurrenceSpec.for_params(params)
    d = spec.discriminant
    a1, a2 = m - n, m + n
    root = _quadratic(0, 1, 1, d)
    if params.family is Family.CYCLE:
        term = (a1 + root) * (a2 - root) ** j + (root - a1) * (root + a2) ** j
    else:
        term = (a1 + root - 1) * (a2 + 1 - root) ** j + (root - a2 + 1) * (root + a2 + 1) ** j
    return term / root / (2 ** (j + 1))


def _exponent_sums(params: FractalParams, upto: int):
    """Yield (S1(k), S2(k), u_k, u_{k+1}) for k = 0..upto, exactly.

    S1(k) = sum of u_j and S2(k) = sum of (k-j)*u_j over j <= k, kept as
    running sums (S2(k) = S2(k-1) + S1(k-1)) over
    :func:`size_sequences`, so one pass serves every k.
    """
    u = size_sequences(params, upto + 1).u
    s1 = s2 = 0
    for k in range(upto + 1):
        s2 += s1
        s1 += u[k]
        yield s1, s2, u[k], u[k + 1]


def _fundamental_pair(a: int, b: int, k: int) -> tuple:
    """(U_{k-1}, U_k) for k >= 1, where U_0 = 0, U_1 = 1 and
    U_j = a*U_{j-1} + b*U_{j-2}, by index doubling on the bits of k.

    Doubling maps (U_{j-1}, U_j) to (U_{2j-1}, U_{2j}) =
    (U_j^2 + b*U_{j-1}^2, U_j*(a*U_j + 2b*U_{j-1})); a set bit then takes
    one plain step.  Nothing divides, so b = 0 needs no special case.
    """
    before, u = 0, 1
    for bit in bin(k)[3:]:
        before, u = u * u + b * before * before, u * (a * u + 2 * b * before)
        if bit == "1":
            before, u = u, a * u + b * before
    return before, u


def vertex_count(params: FractalParams, j: int) -> int:
    """u_j (the stage-(j-1) graph's vertex count) in O(log j) products.

    With u_0 = 1, u_j = (u_1 - a)*U_j + U_{j+1} for the fundamental
    sequence U of :func:`_fundamental_pair`.
    """
    if j < 0:
        raise BadParameterError("index must be >= 0")
    spec = RecurrenceSpec.for_params(params)
    before, u = _fundamental_pair(spec.a, spec.b, j + 1)
    return (spec.u1 - spec.a) * before + u


# the largest vertex count a recurrence may be stepped to, in bits
MAX_RECURRENCE_BITS = 1 << 16


def check_cap(count: int, per: float, cap: int, unit: str, what: str) -> None:
    """Refuse when count * per, predicted in floats, passes cap.

    ``count`` may be an int of thousands of digits, so the product is only
    formed for the message, and shown as "over 10^308" past float range.
    """
    if count > cap / per:
        try:
            size = f"about {count * per:.3e}"
        except OverflowError:
            size = "over 10^308"
        raise OverflowCapError(f"{what} {size} {unit}s, past the {cap}-{unit} cap")


def growth(params: FractalParams, log) -> float:
    """log of the dominant root (a + sqrt(a*a + 4b)) / 2 of the vertex
    recurrence, in floats; 4b / a^2 lies in (-1, 1] even for huge n and m."""
    spec = RecurrenceSpec.for_params(params)
    return log(spec.a) + log((1 + math.sqrt(1 + 4 * spec.b / spec.a**2)) / 2)


def check_steps(params: FractalParams, k: int, what: str) -> None:
    """Refuse, in O(1), to step the vertex count to u_k, about
    k * log2(root) bits, past MAX_RECURRENCE_BITS."""
    check_cap(k, growth(params, math.log2), MAX_RECURRENCE_BITS, "bit",
              f"{what} would step vertex counts to")


def _exponent_sums_closed(params: FractalParams, upto: int) -> tuple:
    """The last two steps of :func:`_exponent_sums` (one if ``upto`` is 0),
    in closed form: :func:`_exponent_sums_of` on the coefficients of
    ``params``, with ``params`` named if a sum comes out non-integral."""
    if upto < 0:
        raise BadParameterError("upto must be >= 0")
    try:
        return _exponent_sums_of(*_recurrence_coefficients(params.family, params.n, params.m),
                                 upto)
    except ArithmeticError:
        raise ArithmeticError(
            f"exponent sums of {params} at k={upto} are not integers") from None


def _exponent_sums_of(a: int, b: int, u1: int, upto: int) -> tuple:
    """The last two (S1(k), S2(k), u_k, u_{k+1}) steps for k = ``upto`` >= 0
    (one if it is 0) of u_j = a*u_{j-1} + b*u_{j-2} with u_0 = 1, in
    closed form from three consecutive vertex counts.

    u_{k-1} = (u_1 - a)*U_{k-1} + U_k and u_k = u_1*U_k + b*U_{k-1} come
    from one index-doubling walk (:func:`_fundamental_pair`), and
    u_{k+1} = a*u_k + b*u_{k-1}.  Summing the recurrence over j = 2..k
    gives, with D = 1 - a - b (1 - m or n*(1 - m) for the two families,
    never 0) and C = 1 + u_1 - a:

        D*S1(k) = C - (a+b)*u_k - b*u_{k-1}
        D*S2(k) = k*C - (a+b)*S1(k-1) - b*S1(k-2) - (u_1 - a)

    where S1(k-1) = S1(k) - u_k and S1(k-2) = S1(k-1) - u_{k-1}.  Both
    divisions must be exact, and ``ArithmeticError`` is raised if one is
    not.  No step divides by b or reads u_{-1}, since b = 0 for the wheel
    with n = m = 3.
    """
    if upto == 0:
        return ((1, 0, 1, u1),)
    fundamental_before, fundamental = _fundamental_pair(a, b, upto)
    before = (u1 - a) * fundamental_before + fundamental
    u = u1 * fundamental + b * fundamental_before
    d, c = 1 - a - b, 1 + u1 - a
    s1, r1 = divmod(c - (a + b) * u - b * before, d)
    s1_prev = s1 - u
    s2, r2 = divmod(upto * c - (a + b) * s1_prev - b * (s1_prev - before) - (u1 - a), d)
    if r1 or r2:
        raise ArithmeticError(f"exponent sums of a={a}, b={b}, u1={u1} at k={upto} "
                              "are not integers")
    return (s1_prev, s2 - s1_prev, before, u), (s1, s2, u, a * u + b * before)


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    delta: float


def _estimate(step: tuple, same_stage: bool, log_base: float, mult: int, log_m: float) -> float:
    # ln tau(G^(k)) / u_k (offset) or / u_{k+1} (same stage) for one
    # (S1, S2, u_k, u_{k+1}) step; int/int true division is correctly rounded, so
    # each ratio is the float nearest the exact rational at any size
    s1, s2, u, u_next = step
    denom = u_next if same_stage else u
    return (s1 / denom) * log_base + mult * (s2 / denom) * log_m


DEFAULT_ENTROPY_ITERS = 60


def entropy_estimates(params: FractalParams, iters: int = DEFAULT_ENTROPY_ITERS) -> tuple:
    """The (offset-stage, same-stage) estimates ln tau(G^(k)) / u_k and
    / u_{k+1} at k = ``iters``, each with its change from k - 1, from one
    index-doubling walk and the closed-form exponent sums of its last two
    steps; exact ratios keep any depth within float range."""
    if iters < 2:
        raise BadParameterError("iters must be >= 2")
    base_count, mult = _tau_terms(params.family, params.n)
    terms = (math.log(base_count), mult, math.log(params.m))
    previous, last = _exponent_sums_closed(params, iters)
    out = []
    for same in (False, True):
        value = _estimate(last, same, *terms)
        out.append(EntropyEstimate(value, value - _estimate(previous, same, *terms)))
    return tuple(out)


def entropy_limit(params: FractalParams) -> EntropyEstimate:
    """Per-vertex spanning-tree entropy via the recurrences, no graphs
    built: the offset-stage member of :func:`entropy_estimates`."""
    return entropy_estimates(params)[0]


def entropy_closed(params: FractalParams) -> float:
    """The explicit entropy formulas, evaluated verbatim.

    The cycle formula is only stated for n > m and matches the limit.  The
    wheel formula (constants A, B, C in :func:`_entropy_closed_floats`, D
    in :func:`_entropy_closed_n_terms`) does not reproduce the numerical
    limit; callers compare, never assume.  An (n, m) whose evaluation
    passes float range is outside the domain.  The value is the terms in n
    alone (:func:`_entropy_closed_n_terms`) composed with the rest
    (:func:`_entropy_closed_floats`).
    """
    family, n, m = params.family, params.n, params.m
    try:
        return _entropy_closed_floats(family, n, m, _entropy_closed_n_terms(family, n))
    except ArithmeticError:
        raise DomainViolationError(
            f"entropy formula at n={n}, m={m} passes float range"
        ) from None


def _entropy_closed_n_terms(family: Family, n: int) -> tuple:
    """The closed form's terms that depend on n alone: ln n for the cycle;
    ln(golden^(2n) - 2) and the constant D for the wheel."""
    if family is Family.CYCLE:
        return (math.log(n),)
    golden = (1 + math.sqrt(5)) / 2
    return (math.log(golden ** (2 * n) - 2),
            4**n * (math.sqrt(5) + 1) ** (-2 * n) * math.cos(2 * math.pi * n))


def _entropy_closed_floats(family: Family, n: int, m: int, n_terms: tuple) -> float:
    if family is Family.CYCLE:
        if not n > m:
            raise DomainViolationError(f"cycle entropy formula needs n > m, got n={n}, m={m}")
        (log_n,) = n_terms
        phi = math.sqrt(-4 * n + (m + n) ** 2)
        a1, a2 = m - n, m + n
        return (2 * (m - 1) * n * log_n - n * math.log(m) * (-phi + a2 - 2)) / (
            (m - 1) * (phi - a1)
        )
    log_golden_base, big_d = n_terms
    z = math.sqrt(6 * (m - 1) * n + (m - 1) ** 2 + n ** 2)
    a2 = m + n
    big_a = 4 * (m - 1) / ((z - a2 + 1) * (z + a2 - 1) ** 2)
    big_b = (4 * n * math.log(m) / (z - a2 + 1) ** 2) * (
        -z
        + m**2 * (n - 1)
        + m * (z + n * (-z + 3 * n - 7) + 2)
        + n * (3 * z - 5 * n + 6)
        - 1
    )
    big_c = (
        (1 / (-z + a2 - 1))
        * (z + a2 - 1)
        * (z + m * (n - 1) - n * (z + n + 4) + 1)
        * log_golden_base
    )
    return big_a * (big_b + big_c + big_d)


def entropy_surface_rows(family: Family, n_range, m_range) -> list:
    """(n, m, offset, same, closed-or-None) rows, n-major order.

    Each value equals :func:`entropy_estimates` at its default depth, and
    :func:`entropy_closed`, bit for bit; closed is None where that raises
    :class:`DomainViolationError`.  Once per row n it takes the base log,
    ``mult`` and the closed form's n-terms.  Once per (n, m) cell it works
    on plain ints: the recurrence coefficients, one index-doubling walk
    with the closed-form exponent sums, the two ratios, and the cell part
    of the closed form.  Each n and each m is checked by
    :class:`FractalParams` once, not once per cell.
    """
    m_values = [FractalParams(family, 3, m).m for m in m_range]  # checks each m
    rows = []
    for n in n_range:
        FractalParams(family, n, 2)  # checks n
        base_count, mult = _tau_terms(family, n)
        log_base = math.log(base_count)
        try:
            n_terms = _entropy_closed_n_terms(family, n)
        except ArithmeticError:
            n_terms = None  # the formula passes float range at every m
        for m in m_values:
            log_m = math.log(m)
            _, last = _exponent_sums_of(*_recurrence_coefficients(family, n, m),
                                        DEFAULT_ENTROPY_ITERS)
            offset = _estimate(last, False, log_base, mult, log_m)
            same = _estimate(last, True, log_base, mult, log_m)
            closed = None
            if n_terms is not None:
                try:
                    closed = _entropy_closed_floats(family, n, m, n_terms)
                except (ArithmeticError, DomainViolationError):
                    pass
            rows.append((n, m, offset, same, closed))
    return rows
