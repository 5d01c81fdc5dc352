"""Reversible encoding of symmetric binary networks as dyadic rationals.

Every upper-triangle column of the adjacency matrix, read from the diagonal
upward, is an integer code. Folding those codes together with power-of-two
scaling produces one number per network:

    U_2 = D_2,    U_(i+1) = U_i / 2^(i-1) + D_(i+1)    for i = 2 .. n-1

where D_j is the code of column j. Carried out in exact arithmetic the map is
a bijection between n-node binary networks and dyadic rationals m / 2^e with
0 <= m / 2^e < 2^(n-1) and e <= (n-2)(n-1)/2, so the network is recoverable
from the number and the node count alone.

At the largest scale e = T(n-2), with T(k) = k(k+1)/2, the fold places D_j at
bit offset T(j-2) of the numerator, and the columns never overlap. The
numerator is therefore the strict lower triangle of the adjacency matrix in
row-major order, read least-significant bit first: encoding is one
``packbits`` and decoding one ``unpackbits``, exact at every network size.
The decimal and record forms render and parse at every size too, whatever
CPython's int/str digit limit. The value form multiplies the numerator by a
power of five, and parsing divides by one, in exact ``decimal`` arithmetic:
libmpdec multiplies and divides large numbers in subquadratic time, where
CPython 3.11 divides ints in quadratic time, and the power is cached per
scale. The 524,086-digit value of the 1025-node complete graph renders
in 0.40-0.44 s and parses in 0.23-0.28 s, against 3.8-5.1 s and 3.2-4.1 s
in int arithmetic (2-core VM, CPython 3.11.7).

A separate double-precision emulation reproduces the behavior of running
the recurrence in binary64, which caps out at 1024 nodes for complete graphs.
"""

from __future__ import annotations

import decimal
import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MalformedCodeError
from .graphs import BinaryNetwork, _adjacency, _built, _check_labels

__all__ = [
    "UbninCode",
    "encode",
    "decode",
    "to_decimal_string",
    "parse_decimal_string",
    "to_record",
    "from_record",
    "to_float64",
    "encode_float64_emulation",
    "complete_graph_code",
    "max_scale",
]


def _triangular(k: int) -> int:
    return k * (k + 1) // 2


def max_scale(n: int) -> int:
    """Largest canonical power-of-two scale for an n-node code."""
    return _triangular(n - 2) if n >= 3 else 0


@dataclass(frozen=True)
class UbninCode:
    """Exact network identifier: the dyadic rational ``numerator / 2**scale``.

    Canonical form (odd numerator, or scale 0) makes structural equality
    coincide with value equality at a fixed node count. Construction rejects
    non-canonical or bound-violating codes.
    """

    n: int
    numerator: int
    scale: int

    def __post_init__(self):
        n, num, e = int(self.n), int(self.numerator), int(self.scale)
        if n < 2:
            raise MalformedCodeError(f"node count must be >= 2, got {n}")
        if num < 0:
            raise MalformedCodeError("numerator must be nonnegative")
        if e < 0:
            raise MalformedCodeError("scale must be nonnegative")
        if e > 0 and num % 2 == 0:
            raise MalformedCodeError("non-canonical code: even numerator with nonzero scale")
        if num.bit_length() > n - 1 + e:  # num >= 2^(n-1+e), without building the power
            raise MalformedCodeError(f"value >= 2^{n - 1}, out of range for {n} nodes")
        if e > max_scale(n):
            raise MalformedCodeError(
                f"scale {e} exceeds bound {max_scale(n)} for {n} nodes"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "scale", e)

    @functools.cached_property
    def _digits(self) -> str:
        """The numerator's decimal digits, converted once per code.

        ``to_decimal_string`` and ``to_record`` both start from them, and
        ``run_fingerprint`` calls both for each code.
        """
        return _int_to_digits(self.numerator)

    @classmethod
    def canonical(cls, n: int, numerator: int, scale: int) -> "UbninCode":
        """Construct after stripping shared factors of two."""
        numerator, scale = int(numerator), int(scale)
        if numerator == 0:
            scale = 0
        elif scale > 0:
            shift = min((numerator & -numerator).bit_length() - 1, scale)
            numerator >>= shift
            scale -= shift
        return cls(n, numerator, scale)

    @property
    def value(self) -> Fraction:
        """The encoded value as an exact fraction."""
        return Fraction(self.numerator, 1 << self.scale)

    def __str__(self):
        return to_decimal_string(self)


@functools.lru_cache(maxsize=8)
def _lower_flat(n: int) -> np.ndarray:
    """Read-only flat indices ``row * n + col`` of the strict lower triangle, row-major."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.setflags(write=False)
    return flat


def _packed_numerator(b: BinaryNetwork) -> int:
    """Numerator of the code at scale ``max_scale(b.n)``: the lower triangle as bits."""
    bits = np.packbits(b.edges.take(_lower_flat(b.n)), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def encode(b: BinaryNetwork) -> UbninCode:
    """Encode a binary network into its exact dyadic-rational identifier.

    Packs the lower triangle into the numerator at scale ``max_scale(n)``,
    then strips factors of two for the canonical form. Exact at every
    network size.
    """
    return UbninCode.canonical(b.n, _packed_numerator(b), max_scale(b.n))


def decode(code: UbninCode, labels=None) -> BinaryNetwork:
    """Reconstruct the binary network encoded by ``code``.

    Shifts the numerator back to scale ``max_scale(n)`` and unpacks its bits
    into the lower triangle. Inverse of :func:`encode` for every valid network;
    the bounds :class:`UbninCode` enforces make every code decodable, and the
    unpacked matrix is a valid adjacency by construction, so only the labels
    are checked.
    """
    n = code.n
    pairs = n * (n - 1) // 2
    num = code.numerator << (max_scale(n) - code.scale)
    raw = np.frombuffer(num.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=pairs, bitorder="little").view(bool)
    return _built(BinaryNetwork, _adjacency(n, _lower_flat(n)[bits]), _check_labels(labels, n))


# CPython refuses int/str conversions beyond sys.get_int_max_str_digits()
# digits (CVE-2020-10735) but never below this many, whatever the setting.
_SAFE_DIGITS = 640
_SAFE_BOUND = 10 ** _SAFE_DIGITS


def _int_to_digits(x: int) -> str:
    """Decimal digits of a nonnegative int of any size."""
    if x < _SAFE_BOUND:
        return str(x)
    k = x.bit_length() * 30103 // 200000  # about half the digit count
    high, low = divmod(x, 10 ** k)
    return _int_to_digits(high) + _int_to_digits(low).zfill(k)


def _is_digits(text: str) -> bool:
    """True for a nonempty string of ASCII digits 0-9 only.

    ``str.isdigit`` alone also accepts superscripts and the digits of other
    scripts, which ``int`` then rejects or reads as if they were 0-9. Once
    ``isascii`` holds, ``bytes.isdigit`` gives the same answer as
    ``str.isdigit``, and scans a long value about ten times as fast.
    """
    return text.isascii() and text.encode().isdigit()


def _digits_to_int(digits: str) -> int:
    """Inverse of :func:`_int_to_digits` for a string of any length."""
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _digits_to_int(digits[:-k]) * 10 ** k + _digits_to_int(digits[-k:])


# Every operation on _EXACT is exact, or it raises: only integers pass
# through it, and it is never asked for ``/``, whose inexact quotient would
# try to allocate MAX_PREC digits.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


@functools.lru_cache(maxsize=16)
def _pow5(k: int) -> decimal.Decimal:
    """``5 ** k`` as an exact Decimal.

    Keyed by the code's own scale. The registry of the benchmark's
    ``fingerprint`` workload (400 codes of 90 nodes, K = 3916) holds 6
    distinct scales at seed 1 and 10 at seed 401, all within 14 of K, so
    sixteen entries keep every one; a miss costs about 90 us at that size.
    """
    return _EXACT.power(5, k)


def to_decimal_string(code: UbninCode) -> str:
    """Exact terminating decimal expansion of the code value.

    A denominator 2^k divides 10^k, so multiplying the numerator by 5^k and
    placing the point k digits from the right is exact. Canonical codes
    never produce trailing fractional zeros; integers render with no point.
    """
    k = code.scale
    if k == 0:
        return code._digits
    digits = str(_EXACT.multiply(decimal.Decimal(code._digits), _pow5(k)))
    digits = digits.zfill(k + 1)
    return f"{digits[:-k]}.{digits[-k:]}"


def parse_decimal_string(text: str, n: int) -> UbninCode:
    """Parse a decimal rendering back into a code for an n-node network.

    The value D / 10^k, with k fraction digits, is m / 2^k exactly when 5^k
    divides D, and the quotient is m.
    """
    text = text.strip()
    int_part, sep, frac_part = text.partition(".")
    if not _is_digits(int_part) or (sep and not _is_digits(frac_part)):
        raise MalformedCodeError(f"not a nonnegative decimal number: {text!r}")
    frac_part = frac_part.rstrip("0")
    k = len(frac_part)
    # Reject before converting: a value below 2^(n-1) has at most n-1 integer
    # digits and a dyadic one has as many fraction digits as its scale.
    if len(int_part.lstrip("0")) > n - 1 or k > max_scale(n):
        raise MalformedCodeError(f"{text!r} is out of range for {n} nodes")
    m, rest = _EXACT.divmod(decimal.Decimal(int_part + frac_part), _pow5(k))
    if rest:
        raise MalformedCodeError(f"{text!r} is not a dyadic rational; it cannot be a network code")
    return UbninCode.canonical(n, _digits_to_int(str(m)), k)


def to_record(code: UbninCode) -> dict:
    """Structured form {n, numerator digit string, scale}."""
    return {"n": code.n, "numerator": code._digits, "scale": code.scale}


def _json_int(literal: str):
    """A JSON integer: an int, or its digit string when too long for ``int``.

    A long numerator then goes through the same length check and conversion
    as the same digits given as a JSON string.
    """
    return int(literal) if len(literal) <= _SAFE_DIGITS else literal


def from_record(record) -> UbninCode:
    """Parse the structured record form, rejecting non-canonical input."""
    if isinstance(record, (str, bytes)):
        try:
            record = json.loads(record, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise MalformedCodeError(f"invalid code record: {exc}") from None
    if not isinstance(record, dict):
        raise MalformedCodeError("code record must be a JSON object")
    missing = {"n", "numerator", "scale"} - set(record)
    if missing:
        raise MalformedCodeError(f"code record missing fields: {sorted(missing)}")
    for key in ("n", "scale"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise MalformedCodeError(f"{key} must be an integer")
    n, num = record["n"], record["numerator"]
    if isinstance(num, str):
        if not _is_digits(num):
            raise MalformedCodeError(f"numerator must be a digit string, got {num!r}")
        # A valid numerator has at most n(n-1)/2 bits, so at most as many digits.
        if len(num.lstrip("0")) > n * (n - 1) // 2:
            raise MalformedCodeError(f"numerator out of range for {n} nodes")
        num = _digits_to_int(num)
    if not isinstance(num, int) or isinstance(num, bool):
        raise MalformedCodeError("numerator must be an integer or digit string")
    return UbninCode(n, num, record["scale"])


def to_float64(code: UbninCode) -> float:
    """Nearest-even binary64 rendering of the exact value; overflows to +inf."""
    try:
        return code.numerator / (1 << code.scale)
    except OverflowError:
        return math.inf


def _int_to_float64(x: int) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def encode_float64_emulation(b: BinaryNetwork) -> float:
    """Run the folding recurrence entirely in binary64.

    Column codes D_j, read from the packed numerator at bit offset T(j-2),
    are first rounded to the nearest double, and the scaling factor is
    evaluated as 1 / 2^power with the denominator overflowing to +inf (hence
    a zero factor) past 2^1023. Reproduces the numeric behavior of the
    double-precision pipeline, including non-finite results for complete
    graphs beyond 1024 nodes.
    """
    num = _packed_numerator(b)
    u = _int_to_float64(num & 1)
    for power in range(1, b.n - 1):
        d = (num >> _triangular(power)) & ((1 << (power + 1)) - 1)
        denom = 2.0 ** power if power <= 1023 else math.inf
        u = u * (1.0 / denom) + _int_to_float64(d)
    return u


def complete_graph_code(n: int) -> UbninCode:
    """Closed-form code of the complete graph on n nodes.

    Unrolling the recurrence with every column code at its maximum gives
    2^(n-1) - 2^-T where T = (n-2)(n-1)/2, and exactly 1 for n = 2.
    """
    if n < 2:
        raise ValueError(f"node count must be >= 2, got {n}")
    if n == 2:
        return UbninCode(2, 1, 0)
    t = _triangular(n - 2)
    return UbninCode(n, (1 << (n - 1 + t)) - 1, t)
