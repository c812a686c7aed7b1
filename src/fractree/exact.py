"""Exact arithmetic kernel: factored counts and a fraction-free determinant.

Python's built-in ``int`` is the arbitrary-precision integer type used
throughout this package, and ``fractions.Fraction`` the exact rational.
Square integer matrices are plain lists of row lists.

Spanning-tree counts of the graph families grow so fast that they are kept
in factored form (:class:`FactoredCount`) and only expanded on demand,
guarded by a bit cap; :func:`decimal_str` prints an expanded count of any
size.
"""

from __future__ import annotations

import decimal
import math
import sys
from math import gcd

from .errors import OverflowCapError

DEFAULT_EXPAND_BIT_CAP = 1 << 24


class FactoredCount:
    """A positive integer stored as a product of bases raised to exponents,
    given as a mapping or as (base, exponent) pairs, whose repeats merge.

    Bases are integers >= 2 and need not be prime; exponents are
    non-negative integers of any size.  Both must be plain ``int``s; a
    ``bool`` is refused, as it is for a vertex id.  Zero exponents are
    dropped, so the empty product represents 1.  Instances are immutable.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors=None):
        items = {}
        if factors:
            for base, exp in factors.items() if hasattr(factors, "items") else factors:
                if type(base) is not int or base < 2:
                    raise ValueError(f"base must be an integer >= 2, got {base!r}")
                if type(exp) is not int or exp < 0:
                    raise ValueError(f"exponent must be a non-negative integer, got {exp!r}")
                if exp:
                    items[base] = items.get(base, 0) + exp
        object.__setattr__(self, "_factors", tuple(sorted(items.items())))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredCount is immutable")

    @property
    def factors(self) -> dict:
        return dict(self._factors)

    def __mul__(self, other: "FactoredCount") -> "FactoredCount":
        if not isinstance(other, FactoredCount):
            return NotImplemented
        merged = self.factors
        for base, exp in other._factors:
            merged[base] = merged.get(base, 0) + exp
        return FactoredCount(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredCount):
            return NotImplemented
        if self._factors == other._factors:
            return True
        atoms = _coprime_atoms([b for b, _ in self._factors] + [b for b, _ in other._factors])
        return _atom_exponents(self._factors, atoms) == _atom_exponents(other._factors, atoms)

    # Semantic equality across different base presentations makes a
    # canonical hash expensive; instances are not used as dict keys.
    __hash__ = None

    def __repr__(self):
        if not self._factors:
            return "FactoredCount({})"
        return "FactoredCount({%s})" % ", ".join(f"{b}: {e}" for b, e in self._factors)

    def __str__(self):
        if not self._factors:
            return "1"
        return "*".join(f"{decimal_str(b)}^{decimal_str(e)}" for b, e in self._factors)

    def to_json(self) -> dict:
        """``{"factors": [[base, "exponent"], ...]}``: bases as ints, exponents
        as decimal strings.

        A base past the interpreter's int-to-str digit limit (4300 digits by
        default) makes the dict fail in ``json.dumps``; the CLI refuses such
        wheels first (``cli.MAX_WHEEL_BASE_DIGITS``), which is what keeps
        every base it prints within the limit.
        """
        return {"factors": [[b, decimal_str(e)] for b, e in self._factors]}


def _coprime_atoms(numbers):
    """Refine integers >= 2 into a pairwise-coprime set spanning them all.

    Repeatedly splits any pair with a common factor, so every input
    factors exactly over the result without needing primality.
    """
    nums = {x for x in numbers if x > 1}
    changed = True
    while changed:
        changed = False
        lst = sorted(nums)
        for i in range(len(lst)):
            for j in range(i + 1, len(lst)):
                g = gcd(lst[i], lst[j])
                if g > 1:
                    for x in (lst[i], lst[j]):
                        nums.discard(x)
                        while x % g == 0:
                            x //= g
                        if x > 1:
                            nums.add(x)
                    nums.add(g)
                    changed = True
                    break
            if changed:
                break
    return sorted(nums)


def _atom_exponents(factor_items, atoms):
    out = {}
    for base, exp in factor_items:
        x = base
        for a in atoms:
            k = 0
            while x % a == 0:
                x //= a
                k += 1
            if k:
                out[a] = out.get(a, 0) + k * exp
        if x != 1:
            raise ArithmeticError(f"base {base} did not factor over refined atoms")
    return {a: e for a, e in out.items() if e}


def _predicted_bits(count: FactoredCount) -> float:
    bits = 0.0
    for base, exp in count._factors:
        try:
            bits += math.log2(base) * exp
        except OverflowError:
            return math.inf
    return bits


def factored_expand(count: FactoredCount) -> int:
    """Expand a factored count to an integer.

    A count whose predicted size passes :data:`DEFAULT_EXPAND_BIT_CAP`
    (2^24 bits) is refused with :class:`OverflowCapError` before any
    product is taken.
    """
    bits = _predicted_bits(count)
    if bits > DEFAULT_EXPAND_BIT_CAP:
        # the size, never the count: its exponents can pass the int-to-str limit
        size = "over 10^308" if math.isinf(bits) else f"{bits:.3e}"
        raise OverflowCapError(
            f"expansion would need {size} bits, past the {DEFAULT_EXPAND_BIT_CAP}-bit cap"
        )
    value = 1
    for base, exp in count._factors:
        value *= base ** exp
    return value


def short_count_str(value: int) -> str:
    """A non-negative count for a one-line message: its digits below 2^64,
    else a lower bound on its size ("at least 2^k"), so that no message
    formats a huge integer."""
    if value < 1 << 64:
        return str(value)
    return f"at least 2^{value.bit_length() - 1}"


_DECIMAL_LEAF_BITS = 1024
# str() is quadratic but beats the split below up to about 13,000 digits
_STR_FASTER_BITS = 40_000


def decimal_str(value: int) -> str:
    """Decimal digits of an integer of any size.

    ``str(int)`` refuses integers over the interpreter's digit limit (4300
    digits by default) and takes quadratic time.  It is used only below
    both that limit and 40,000 bits.  Past that this splits the value
    into binary halves down to 1024-bit leaves, converts each leaf to an
    exact :class:`decimal.Decimal`, and joins the halves as
    ``low + high * 2**w`` in decimal arithmetic, whose large products are
    subquadratic -- the divide-and-conquer conversion of Tim Peters that
    CPython 3.12 ships as ``_pylong``.
    """
    # b bits make at most 0.302*b + 1 digits, so 3 bits per allowed digit
    # stays under any limit the interpreter accepts (0 means none)
    limit = sys.get_int_max_str_digits() or math.inf
    if value.bit_length() <= min(3 * limit, _STR_FASTER_BITS):
        return str(value)
    if value < 0:
        return "-" + decimal_str(-value)
    powers = {}

    def power_of_two(w):
        result = powers.get(w)
        if result is None:
            if w <= _DECIMAL_LEAF_BITS:
                result = decimal.Decimal(1 << w)
            else:
                half = w >> 1
                result = power_of_two(half) * power_of_two(w - half)
            powers[w] = result
        return result

    def convert(v, w):
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(v)
        half = w >> 1
        high = v >> half
        low = v - (high << half)
        return convert(low, half) + convert(high, w - half) * power_of_two(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


def _exp_times_log(exp: int, base: int) -> float:
    # float(exp) raises OverflowError beyond 2**1024; shift down to 53
    # significant bits first so arbitrarily large exponents still work.
    if exp.bit_length() <= 53:
        return exp * math.log(base)
    shift = exp.bit_length() - 53
    try:
        return math.ldexp((exp >> shift) * math.log(base), shift)
    except OverflowError:
        return math.inf


def factored_log(count: FactoredCount) -> float:
    """Natural log of the count, computed without expanding it."""
    return math.fsum(_exp_times_log(e, b) for b, e in count._factors)


def bareiss_determinant(matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    One-step Bareiss: every intermediate entry is a minor of the input, so
    all divisions are exact and entries never explode beyond the size of
    the final cofactors.  Zero pivots are handled by row swaps with sign
    tracking; a fully zero pivot column means the determinant is 0.
    The 0x0 matrix has determinant 1 by convention.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        rowk = m[k]
        for i in range(k + 1, n):
            rowi = m[i]
            f = rowi[k]
            if f:
                for j in range(k + 1, n):
                    rowi[j] = (pivot * rowi[j] - f * rowk[j]) // prev
            elif pivot != prev:
                for j in range(k + 1, n):
                    rowi[j] = (pivot * rowi[j]) // prev
            rowi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]
