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

A registry renders many codes of one node count, and ``_render_stack``
renders them a chunk at a time, in exact float64 matrix products. Each
code's numerator, shifted to scale K = max_scale(n), is a row of 16-bit
words; its product with a table whose row j holds the base-10^8 limbs of
2^(16j) 5^K gives the limbs of the code's value times 10^(K - scale). A
second product, with the limbs of 2^(16j), gives the numerators' digits.
Every term is at most 65535 (10^8 - 1), so up to 1374 words (210 nodes)
every partial sum is an integer below 2^53, and the product is the same in
any BLAS summation order, blocking or thread count. The tables are built on
first use, and only while a node count's pair fits a 4 MiB budget (to 120
nodes); past it, each code renders on its own as above, and that path is
the oracle for the chunked one. At 90 nodes a chunk of 32 codes renders in
about 31 us a code against about 117 us one at a time (same VM, one BLAS
thread).

A separate double-precision emulation reproduces the behavior of running
the recurrence in binary64, which caps out at 1024 nodes for complete graphs.
"""

from __future__ import annotations

import decimal
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MalformedCodeError, ValidationError, _check_count
from .graphs import BinaryNetwork, _built, _check_labels

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
        n, num, e = self.n, self.numerator, self.scale
        if type(n) is not int or type(num) is not int or type(e) is not int:
            n, num, e = int(n), int(num), int(e)
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "numerator", num)
            object.__setattr__(self, "scale", e)
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

    @functools.cached_property
    def _digits(self) -> str:
        """The numerator's decimal digits, converted once per code.

        ``to_decimal_string`` and ``to_record`` both start from them. A
        registry renders through ``_render_stack`` instead, which computes
        the digits of a chunk of codes at once and caches none, except past
        its table budget, where it calls both for each code.
        """
        return _int_to_digits(self.numerator)

    @classmethod
    def canonical(cls, n: int, numerator: int, scale: int) -> "UbninCode":
        """Construct after stripping shared factors of two."""
        return cls(n, *_stripped(int(numerator), int(scale)))

    @property
    def value(self) -> Fraction:
        """The encoded value as an exact fraction."""
        return Fraction(self.numerator, 1 << self.scale)

    def __str__(self):
        return to_decimal_string(self)


def _stripped(numerator: int, scale: int) -> tuple[int, int]:
    """``(numerator, scale)`` of the same value with shared factors of two
    stripped: the canonical form."""
    if numerator == 0:
        return 0, 0
    if scale > 0:
        shift = min((numerator & -numerator).bit_length() - 1, scale)
        return numerator >> shift, scale - shift
    return numerator, scale


@functools.lru_cache(maxsize=8)
def _lower_flat(n: int) -> np.ndarray:
    """Read-only flat indices ``row * n + col`` of the strict lower triangle, row-major."""
    rows, cols = np.tril_indices(n, -1)
    flat = rows * n + cols
    flat.setflags(write=False)
    return flat


@functools.lru_cache(maxsize=8)
def _symmetric_index(n: int) -> np.ndarray:
    """Read-only flat (n * n) index into an n-node code's unpacked bits and
    one zero after them: cell (i, j) holds the bit position of the pair
    (max(i, j), min(i, j)) in the strict lower triangle, row-major, and a
    diagonal cell the position of the zero. int32 while the positions fit."""
    pairs = n * (n - 1) // 2
    index = np.full(n * n, pairs, np.int32 if pairs < 2 ** 31 else np.intp)
    flat = _lower_flat(n)
    position = np.arange(pairs, dtype=index.dtype)
    index[flat] = position
    index[flat % n * n + flat // n] = position  # the mirrored cells (col, row)
    index.setflags(write=False)
    return index


def _packed_numerators(edges: np.ndarray) -> list[int]:
    """Numerator at scale ``max_scale(n)`` of each adjacency of a (b, n, n)
    stack: its lower triangle as bits, every row packed by one ``packbits``."""
    b, n = edges.shape[:2]
    lower = edges.reshape(b, n * n).take(_lower_flat(n), axis=1)
    rows = np.packbits(lower, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _encode_stack(edges: np.ndarray) -> list[UbninCode]:
    """The code of each adjacency of a (b, n, n) stack, as :func:`encode`
    gives it.

    Each packed numerator is below 2^(n(n-1)/2) = 2^(n-1+max_scale(n)), so
    its canonical form is a valid code, built without the constructor's
    checks.
    """
    n = edges.shape[1]
    top = max_scale(n)
    return [_built(UbninCode, n, *_stripped(num, top)) for num in _packed_numerators(edges)]


def encode(b: BinaryNetwork) -> UbninCode:
    """Encode a binary network into its exact dyadic-rational identifier.

    Packs the lower triangle into the numerator at scale ``max_scale(n)``,
    then strips factors of two for the canonical form. Exact at every
    network size. The one-network case of ``_encode_stack``.
    """
    return _encode_stack(b.edges[None])[0]


def decode(code: UbninCode, labels=None) -> BinaryNetwork:
    """Reconstruct the binary network encoded by ``code``.

    Shifts the numerator back to scale ``max_scale(n)``, unpacks its bits
    and one zero after them, and gathers the adjacency from them in one
    ``take`` through a cached index (``_symmetric_index``). Inverse of
    :func:`encode` for every valid network; the bounds :class:`UbninCode`
    enforces make every code decodable, and the gathered matrix is a valid
    adjacency by construction, so only the labels are checked. A code whose
    matrix cannot be allocated raises ``ValidationError``.
    """
    n = code.n
    pairs = n * (n - 1) // 2
    try:
        num = code.numerator << (max_scale(n) - code.scale)
        raw = np.frombuffer(num.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
        # The numerator is below 2^pairs: bit ``pairs``, padded or unused, is 0.
        bits = np.unpackbits(raw, count=pairs + 1, bitorder="little").view(bool)
        e = bits.take(_symmetric_index(n)).reshape(n, n)
    except (MemoryError, OverflowError):
        raise ValidationError(f"a network of {n} nodes is too large to decode: "
                              "its adjacency matrix does not fit in memory") from None
    return _built(BinaryNetwork, e, _check_labels(labels, n))


# CPython refuses int/str conversions beyond sys.get_int_max_str_digits()
# digits (CVE-2020-10735; 4300 by default, 0 for no limit), but never below
# this many, whatever the setting. ``_digits_to_int`` reads the current limit
# and converts in one call within it; ``_int_to_digits`` and ``_json_int``
# stay within this floor.
_SAFE_DIGITS = 640
_SAFE_BOUND = 10 ** _SAFE_DIGITS
# The interpreter's current int/str digit limit; 0 where it has none.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


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
    """Inverse of :func:`_int_to_digits` for a string of any length.

    One ``int`` call whenever the interpreter's current digit limit admits
    the string, and halves joined by a power of ten only beyond it: at a
    90-node numerator's 1205 digits one call takes 10.8 us where halves
    from 640 digits took 13.1, and at 4300 digits 104 against 120 us
    (2-core VM, one CPU, CPython 3.11.7).
    """
    limit = _digit_limit()
    if not limit or len(digits) <= limit:
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

    Keyed by the code's own scale. On the benchmark's ``fingerprint``
    workload it serves parsing only: the registry (400 codes of 90 nodes,
    K = 3916) renders through ``_render_stack``'s tables. Its records hold 6
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


_LIMB = 10 ** 8  # base of the limbs the chunked render computes in
# Byte budget of one node count's pair of render tables (``_render_tables``).
# It admits node counts up to 120 (3.42 MiB at 116), well inside the 2^53
# bound, which holds to 210.
_TABLE_BYTES = 4 << 20


def _limb_table(first: int, words: int, limbs: int) -> np.ndarray:
    """float64 (words, limbs) table whose row j holds the base-10^8 limbs of
    ``first * 2 ** (16 * j)``, least significant first."""
    digits = np.frombuffer(_int_to_digits(first).zfill(limbs * 8).encode(), np.uint8) - 48
    row = (digits.reshape(limbs, 8) @ 10 ** np.arange(7, -1, -1))[::-1]
    table = np.empty((words, limbs))
    table[0] = row
    for j in range(1, words):
        table[j] = row = _carry(row << 16)
    return table


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Carry int64 base-10^8 limbs (last axis, least significant first) in
    place until each is below 10^8, and return them. The top limb never
    carries: the number fits its limbs."""
    while True:
        high = limbs // _LIMB  # np.divmod is several times as slow
        if not high.any():
            return limbs
        limbs[..., 1:] += high[..., :-1]
        high *= _LIMB
        limbs -= high


@functools.lru_cache(maxsize=2)
def _render_tables(n: int):
    """The value and numerator tables of n-node codes for ``_render_stack``,
    or None when together they would pass ``_TABLE_BYTES``.

    A numerator at scale ``max_scale(n)`` has n(n-1)/2 bits, one row of
    16-bit words, and times ``5 ** max_scale(n)`` it is below
    2^(n-1) 10^max_scale(n). A number below 2^b has at most
    floor(b log10 2) + 1 digits, and 0.30103 > log10 2: that many digits,
    8 to a limb, make a table row. Built on first use, not at import: the
    90-node pair takes 1.24 MiB and about 10 ms.
    """
    pairs = n * (n - 1) // 2
    words = (pairs + 15) // 16
    value_limbs = -(-(max_scale(n) + (n - 1) * 30103 // 100000 + 1) // 8)
    numerator_limbs = -(-(pairs * 30103 // 100000 + 1) // 8)
    if 8 * words * (value_limbs + numerator_limbs) > _TABLE_BYTES:
        return None
    return (_limb_table(5 ** max_scale(n), words, value_limbs),
            _limb_table(1, words, numerator_limbs))


def _limb_digits(numerators: list[int], table: np.ndarray) -> str:
    """The decimal digits of each numerator, zero-padded to 8 per table limb,
    one after another.

    Each numerator, as 16-bit words, is one row of a float64 matrix; its
    product with ``table`` holds the limbs of the numerator times the
    table's first number, not yet carried. Every term of a sum is at most
    65535 (10^8 - 1) and a sum has one per word, so while there are at most
    1374 words every partial sum is an integer below 2^53, and the product is
    exact in any summation order.
    """
    words, limbs = table.shape
    packed = b"".join(x.to_bytes(2 * words, "little") for x in numerators)
    stack = np.frombuffer(packed, "<u2").reshape(len(numerators), words)
    # Limbs most significant first, and each one's 8 digits: scalar division
    # by 10 is several times as fast as an array of powers of ten.
    rest = np.ascontiguousarray(_carry((stack @ table).astype(np.int64))[:, ::-1], np.uint32)
    digits = np.empty(rest.shape + (8,), np.uint8)
    for place in range(7, 0, -1):
        high = rest // 10
        digits[..., place] = rest - high * 10
        rest = high
    digits[..., 0] = rest
    digits += 48
    return str(digits.data, "ascii")


def _render_stack(codes: list[UbninCode]) -> list[tuple[str, str]]:
    """``(to_decimal_string(c), to_record(c)["numerator"])`` of each code of
    one node count.

    Each value is the digits of its numerator at scale ``max_scale(n)`` times
    ``5 ** max_scale(n)``, less the ``max_scale(n) - scale`` trailing zeros
    that the shift adds, with the point ``scale`` digits from the right.
    Both digit strings come from one exact float64 matrix product each
    (``_limb_digits``) over cached tables (``_render_tables``). Past the
    tables' byte budget, each code renders on its own.
    """
    if not codes:
        return []
    n = codes[0].n
    tables = _render_tables(n)
    if tables is None:
        return [(to_decimal_string(c), c._digits) for c in codes]
    top = max_scale(n)
    value_table, numerator_table = tables
    values = _limb_digits([c.numerator << (top - c.scale) for c in codes], value_table)
    numerators = _limb_digits([c.numerator for c in codes], numerator_table)
    value_width, numerator_width = 8 * value_table.shape[1], 8 * numerator_table.shape[1]
    out = []
    for i, c in enumerate(codes):
        end = (i + 1) * value_width - (top - c.scale)
        point = end - c.scale
        whole = values[i * value_width:point].lstrip("0") or "0"
        numerator = numerators[i * numerator_width:(i + 1) * numerator_width].lstrip("0") or "0"
        out.append((f"{whole}.{values[point:end]}" if c.scale else whole, numerator))
    return out


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

    It rounds at every step, so it can differ from ``to_float64``, the exact
    value rounded once, by 1 ulp. From 55 nodes the last column code can
    have 54 or more significant bits and is rounded on its own before it is
    added: on random graphs of density 0.3, 7-20 of 200 differ at each size
    from 55 to 61. Below 55 nodes only a sum rounded at an earlier step can
    differ: at most 1 of 200 at a size, at some sizes from 12 to 23.
    """
    num, = _packed_numerators(b.edges[None])
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
    _check_count("node count", n, 2)
    n = int(n)  # a numpy integer would wrap in the shift below
    if n == 2:
        return UbninCode(2, 1, 0)
    t = _triangular(n - 2)
    return UbninCode(n, (1 << (n - 1 + t)) - 1, t)
