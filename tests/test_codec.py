import json
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubnin import (
    BinaryNetwork,
    MalformedCodeError,
    UbninCode,
    complete_graph_code,
    decode,
    encode,
    encode_float64_emulation,
    from_record,
    parse_decimal_string,
    to_decimal_string,
    to_float64,
    to_record,
)
from ubnin import codec
from ubnin.codec import _encode_stack, _lower_flat, max_scale
from oracles import (
    column_codes,
    decode_scatter,
    decode_tril,
    digits_to_int_split,
    encode_fraction,
    encode_stack_canonical,
    encode_tril,
    is_digits_str,
    parse_decimal_string_int,
    to_decimal_string_int,
)
from synth import (
    complete_graph,
    empty_graph,
    graph_from_bitmask,
    path_graph,
    random_binary,
    random_bitmask,
)

K10_DECIMAL = "511.999999999985448084771633148193359375"


def single_edge(n=2):
    e = np.zeros((n, n), dtype=bool)
    e[0, 1] = e[1, 0] = True
    return BinaryNetwork(e)


def packed_columns(code):
    """Column codes D_2 .. D_n read from the numerator at scale max_scale(n).

    Column D_(c+1) holds c bits at offset c(c-1)/2, so the columns tile the
    numerator without overlap.
    """
    num = code.numerator << (max_scale(code.n) - code.scale)
    return tuple((num >> (c * (c - 1) // 2)) & ((1 << c) - 1) for c in range(1, code.n))


class TestColumnDecimals:
    def test_single_edge(self):
        assert packed_columns(encode(single_edge())) == column_codes(single_edge().edges) == (1,)

    def test_complete_graph_all_ones_columns(self):
        b = complete_graph(5)
        assert packed_columns(encode(b)) == column_codes(b.edges) == (1, 3, 7, 15)

    def test_path_graph_one_bit_per_column(self):
        b = path_graph(5)
        assert packed_columns(encode(b)) == column_codes(b.edges) == (1, 2, 4, 8)

    def test_matrix_round_trip(self):
        b = graph_from_bitmask(7, 0b101100111010101001011)
        assert packed_columns(encode(b)) == column_codes(b.edges)
        assert decode(encode(b)) == b

    def test_rejects_out_of_range_value(self):
        # D_2 = 1 and D_3 = 4, one bit wider than column 3 holds
        with pytest.raises(MalformedCodeError):
            UbninCode.canonical(3, 1 | 4 << 1, max_scale(3))

    def test_rejects_wrong_length(self):
        # the 5-node path graph code carries one column more than 4 nodes have
        with pytest.raises(MalformedCodeError):
            UbninCode(4, 549, 6)


class TestEncode:
    def test_empty_graph_is_zero(self):
        code = encode(empty_graph(7))
        assert (code.numerator, code.scale) == (0, 0)
        assert code.value == 0

    def test_path_graph(self):
        code = encode(path_graph(5))
        assert (code.numerator, code.scale) == (549, 6)
        assert to_decimal_string(code) == "8.578125"

    def test_k10_exact_decimal(self):
        assert to_decimal_string(encode(complete_graph(10))) == K10_DECIMAL

    def test_k20_closed_form(self):
        code = encode(complete_graph(20))
        assert code.numerator == 2**190 - 1
        assert code.scale == 171

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 20, 50, 100, 200])
    def test_matches_closed_form_complete_graph(self, n):
        assert encode(complete_graph(n)) == complete_graph_code(n)

    def test_closed_form_takes_a_numpy_node_count(self):
        assert complete_graph_code(np.int64(100)) == encode(complete_graph(100))

    def test_closed_form_k5(self):
        code = complete_graph_code(5)
        assert code.value == Fraction(1023, 64)
        assert to_decimal_string(code) == "15.984375"

    def test_closed_form_beyond_the_double_ceiling(self):
        assert encode(complete_graph(1300)) == complete_graph_code(1300)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 90, 150])
    def test_matches_fraction_oracle_at_every_density(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            b = random_binary(n, density, rng)
            assert encode(b).value == encode_fraction(b.edges)

    def test_matches_fraction_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            b = graph_from_bitmask(n, random_bitmask(n * (n - 1) // 2, rng))
            assert encode(b).value == encode_fraction(b.edges)


class TestDecode:
    def test_zero_decodes_to_empty(self):
        assert decode(UbninCode(7, 0, 0)) == empty_graph(7)

    def test_path_graph(self):
        assert decode(UbninCode(5, 549, 6)) == path_graph(5)

    def test_k10_from_decimal_string(self):
        assert decode(parse_decimal_string(K10_DECIMAL, 10)) == complete_graph(10)

    def test_k10_value_with_wrong_node_count(self):
        with pytest.raises(MalformedCodeError):
            parse_decimal_string(K10_DECIMAL, 9)

    def test_custom_labels(self):
        labels = ("a", "b", "c", "d", "e")
        assert decode(UbninCode(5, 549, 6), labels).labels == labels

    def test_exhaustive_n4(self):
        seen = set()
        for mask in range(64):
            b = graph_from_bitmask(4, mask)
            code = encode(b)
            seen.add((code.numerator, code.scale))
            assert decode(code) == b
        assert len(seen) == 64


class TestEveryValidCode:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_code_decodes_and_reencodes_to_itself(self, n):
        networks = set()
        for scale in range(max_scale(n) + 1):
            for numerator in range(1 << (n - 1 + scale)):
                if scale and numerator % 2 == 0:
                    continue
                code = UbninCode(n, numerator, scale)
                b = decode(code)
                assert encode(b) == code
                networks.add(b.edges.tobytes())
        assert len(networks) == 2 ** (n * (n - 1) // 2)


def decimal_reference(code):
    """Exact decimal rendering through the decimal module, which has no digit limit."""
    with localcontext() as ctx:
        ctx.prec = code.numerator.bit_length() + code.scale + 2
        return format(Decimal(code.numerator) / Decimal(2) ** code.scale, "f")


class TestDecimalStrings:
    @pytest.mark.parametrize("n", [94, 150, 400])
    def test_beyond_the_int_str_digit_limit(self, n):
        # the K94 decimal already has more than 4300 digits
        code = complete_graph_code(n)
        text = to_decimal_string(code)
        assert len(text) > 4300
        assert text == decimal_reference(code)
        assert parse_decimal_string(text, n) == code

    def test_k1025_round_trip(self):
        # the largest complete graph the binary64 recurrence cannot represent
        code = complete_graph_code(1025)
        text = to_decimal_string(code)
        int_part, frac_part = text.split(".")
        assert (len(text), len(frac_part)) == (524_086, max_scale(1025))
        assert int_part == str(2**1024 - 1)
        assert parse_decimal_string(text, 1025) == code

    @pytest.mark.parametrize("text", ["1" * 10**6, "0." + "1" * 10**6, "1." + "5" * 10**6])
    def test_oversized_literal_rejected_before_conversion(self, text):
        with pytest.raises(MalformedCodeError, match="out of range"):
            parse_decimal_string(text, 5)

    def test_integer_value_has_no_point(self):
        assert to_decimal_string(encode(single_edge())) == "1"

    def test_leading_zero_padding(self):
        # 1/1024 needs zeros between the point and the first significant digit
        code = UbninCode(60, 1, 10)
        assert to_decimal_string(code) == "0.0009765625"
        assert parse_decimal_string("0.0009765625", 60) == code

    def test_parse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            b = graph_from_bitmask(n, random_bitmask(n * (n - 1) // 2, rng))
            code = encode(b)
            assert parse_decimal_string(to_decimal_string(code), n) == code

    def test_trailing_zero_padding_accepted(self):
        assert parse_decimal_string("8.5781250", 5) == UbninCode(5, 549, 6)

    @pytest.mark.parametrize("text", ["0.1", "0.3", "1.00000000000001"])
    def test_non_dyadic_rejected(self, text):
        with pytest.raises(MalformedCodeError):
            parse_decimal_string(text, 50)

    @pytest.mark.parametrize("text", ["", "abc", "-1", "1.2.3", "1e5", " 5. "])
    def test_garbage_rejected(self, text):
        with pytest.raises(MalformedCodeError):
            parse_decimal_string(text, 5)

    # Superscript two, Arabic-Indic three and five, fullwidth seven: str.isdigit
    # accepts all of them, and int() reads the last three as 3, 5 and 7.
    @pytest.mark.parametrize("text", ["\u00b2", "\u0663", "3.\u0665", "\u0663.5", "\uff17"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(MalformedCodeError, match="not a nonnegative decimal number"):
            parse_decimal_string(text, 5)


class TestDigitCheck:
    """``codec._is_digits`` against ``is_digits_str``, the check it replaced."""

    # Superscript two, Arabic-Indic three, fullwidth one, and each among ASCII digits.
    EDGE_CASES = ["", "0", "0123456789", "\u00b2", "\u0663", "\uff11", "1\u00b2",
                  "\u06631", "12\uff113", " 1", "1 ", "+1", "-1", "1.5", "\x00", "\x7f1",
                  "1" * 3940, "1" * 3939 + "\u0663"]

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, text):
        assert codec._is_digits(text) is is_digits_str(text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from("0123456789.-+ e\u00b2\u0663\uff11\u00e9a"))
           | st.text())
    def test_same_answer_as_the_string_rule(self, text):
        assert codec._is_digits(text) is is_digits_str(text)


class TestRecords:
    def test_round_trip(self):
        code = encode(path_graph(5))
        rec = to_record(code)
        assert rec == {"n": 5, "numerator": "549", "scale": 6}
        assert from_record(rec) == code
        assert from_record('{"n": 5, "numerator": "549", "scale": 6}') == code

    def test_value_and_record_convert_the_numerator_once(self, monkeypatch):
        conversions = []

        def counted(x):
            conversions.append(x)
            return str(x)

        monkeypatch.setattr(codec, "_int_to_digits", counted)
        code = encode(path_graph(5))
        assert to_decimal_string(code) == "8.578125"
        assert to_record(code) == {"n": 5, "numerator": "549", "scale": 6}
        assert str(code) == "8.578125"
        assert conversions == [549]

    @pytest.mark.parametrize("n", [170, 400])
    def test_round_trip_beyond_the_int_str_digit_limit(self, n):
        code = complete_graph_code(n)
        rec = to_record(code)
        assert len(rec["numerator"]) > 4300
        assert rec["numerator"] == format(Decimal(code.numerator), "f")
        assert from_record(json.dumps(rec)) == code

    def test_oversized_numerator_rejected_before_conversion(self):
        with pytest.raises(MalformedCodeError, match="out of range"):
            from_record({"n": 5, "numerator": "1" * 10**6, "scale": 0})

    def test_bare_integer_numerator_beyond_the_int_str_digit_limit(self):
        code = encode(random_binary(200, 0.5, np.random.default_rng(200)))
        rec = to_record(code)
        assert len(rec["numerator"]) > 4300
        bare = '{"n": 200, "numerator": %s, "scale": %d}' % (rec["numerator"], rec["scale"])
        assert from_record(bare) == from_record(json.dumps(rec)) == code
        with pytest.raises(MalformedCodeError, match="digit string"):
            from_record(bare.replace('"numerator": ', '"numerator": -'))
        with pytest.raises(MalformedCodeError, match="out of range"):
            from_record('{"n": 5, "numerator": %s, "scale": 0}' % ("1" * 10**6))

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedCodeError):
            from_record({"n": 5, "numerator": "549"})

    # The Arabic-Indic forms of 549 would otherwise decode as the path graph.
    @pytest.mark.parametrize("num, scale", [("\u00b2", 0), ("\u0665\u0664\u0669", 6),
                                            ("5\u0664\u0669", 6)])
    def test_non_ascii_digits_rejected(self, num, scale):
        with pytest.raises(MalformedCodeError, match="digit string"):
            from_record({"n": 5, "numerator": num, "scale": scale})

    def test_non_canonical_rejected(self):
        with pytest.raises(MalformedCodeError):
            from_record({"n": 5, "numerator": "1098", "scale": 7})

    def test_scale_bound_rejected(self):
        with pytest.raises(MalformedCodeError):
            from_record({"n": 5, "numerator": "549", "scale": 7})

    def test_value_bound_rejected(self):
        with pytest.raises(MalformedCodeError):
            from_record({"n": 3, "numerator": "4", "scale": 0})

    def test_bad_types_rejected(self):
        with pytest.raises(MalformedCodeError):
            from_record({"n": 5, "numerator": "x9", "scale": 6})
        with pytest.raises(MalformedCodeError):
            from_record({"n": "5", "numerator": "549", "scale": 6})
        with pytest.raises(MalformedCodeError):
            from_record("[1,2]")


class TestCanonicalForm:
    def test_even_numerator_with_scale_rejected(self):
        with pytest.raises(MalformedCodeError):
            UbninCode(5, 1098, 7)

    def test_canonical_constructor_strips_twos(self):
        assert UbninCode.canonical(5, 1098, 7) == UbninCode(5, 549, 6)
        assert UbninCode.canonical(5, 0, 4) == UbninCode(5, 0, 0)

    def test_node_count_bound(self):
        with pytest.raises(MalformedCodeError):
            UbninCode(1, 0, 0)

    @pytest.mark.parametrize("n, e", [(2, 0), (5, 0), (40, 0), (5, 6), (40, 700)])
    def test_value_bound_is_exact(self, n, e):
        top = 1 << (n - 1 + e)  # the value bound 2^(n-1) at scale e
        assert UbninCode(n, top - 1, e).numerator == top - 1
        past = top if e == 0 else top + 1  # at scale e > 0 a numerator must be odd
        with pytest.raises(MalformedCodeError, match="out of range"):
            UbninCode(n, past, e)

    def test_value_bound_builds_no_power_of_two(self):
        # 2^(n-1) alone would take 12 MiB at n = 10^8
        tracemalloc.start()
        try:
            code = from_record({"n": 10**8, "numerator": "1", "scale": 0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == UbninCode(10**8, 1, 0)
        assert peak < 1 << 20

    def test_n2_scale_must_be_zero(self):
        with pytest.raises(MalformedCodeError):
            UbninCode(2, 1, 1)

    def test_str_is_decimal_rendering(self):
        assert str(UbninCode(5, 549, 6)) == "8.578125"


class TestFloat64:
    def test_k10_exactly_representable(self):
        assert to_float64(encode(complete_graph(10))) == float(K10_DECIMAL)

    @pytest.mark.parametrize(
        "n,expected",
        [(20, 524288.0), (30, 536870912.0), (40, 549755813888.0), (50, 562949953421312.0)],
    )
    def test_large_complete_graphs_round_to_powers_of_two(self, n, expected):
        assert to_float64(encode(complete_graph(n))) == expected

    def test_overflow_gives_infinity(self):
        assert to_float64(complete_graph_code(1100)) == math.inf

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50, 1024])
    def test_emulation_agrees_with_exact_rendering(self, n):
        code = complete_graph_code(n)
        assert encode_float64_emulation(complete_graph(n)) == to_float64(code)

    # Sizes at which some of the sample's random graphs (density 0.3, seed
    # [7, n]) render differently, and how many: 200 graphs a size from 2 to
    # 61 nodes, then 10 a size. Every difference is 1 ulp.
    SAMPLE = [(range(2, 62), 200), ((64, 90, 128, 256, 512, 1024), 10)]
    DIFFERING = {12: 1, 13: 1, 14: 1, 15: 1, 20: 1, 22: 1, 23: 1,
                 55: 11, 56: 20, 57: 18, 58: 18, 59: 10, 60: 13, 61: 7, 64: 1}

    def test_emulation_within_one_ulp_of_exact_rendering_up_to_1024_nodes(self):
        differing = {}
        for sizes, count in self.SAMPLE:
            for n in sizes:
                rng = np.random.default_rng([7, n])
                for _ in range(count):
                    b = random_binary(n, 0.3, rng)
                    emulated, exact = encode_float64_emulation(b), to_float64(encode(b))
                    if emulated != exact:
                        assert math.nextafter(exact, emulated) == emulated
                        differing[n] = differing.get(n, 0) + 1
        assert differing == self.DIFFERING

    @pytest.mark.parametrize("n", [55, 56, 90, 1024])
    def test_last_column_code_rounded_on_its_own_from_55_nodes(self, n):
        # D_n = 2^(n-2) + 2^(n-55) has 54 significant bits and lies halfway
        # between two doubles: float() ties it down to even, while the exact
        # value, a little above D_n, rounds up.
        e = np.zeros((n, n), dtype=bool)
        for i, j in ((1, 0), (n - 1, n - 2), (n - 1, n - 55)):
            e[i, j] = e[j, i] = True
        b = BinaryNetwork(e)
        assert encode_float64_emulation(b) == math.ldexp(1.0, n - 2)
        assert to_float64(encode(b)) == math.ldexp(1.0, n - 2) + math.ldexp(1.0, n - 54)


class TestEmulationLimits:
    def test_k1024_finite(self):
        value = encode_float64_emulation(complete_graph(1024))
        assert value == math.ldexp(1.0, 1023)

    def test_k1025_non_finite(self):
        assert not math.isfinite(encode_float64_emulation(complete_graph(1025)))

    def test_k100_last_digits(self):
        value = encode_float64_emulation(complete_graph(100))
        assert int(value) == 633825300114114700748351602688

    @pytest.mark.parametrize(
        "n,mantissa",
        [
            (150, "7.13623846352979940529142984724747568191e44"),
            (200, "8.03469022129495137770981046170581301261e59"),
            (250, "9.04625697166532776746648320380374280104e74"),
            (300, "1.01851798816724304313422284420468908053e90"),
            (500, "1.63669530394807093500659484841379957611e150"),
            (800, "3.33400721643992713703992589536062889857e240"),
            (1000, "5.35754303593133660474212524530000905281e300"),
            (1020, "5.61779104644473721165407872121570229256e306"),
        ],
    )
    def test_large_rows_to_39_significant_digits(self, n, mantissa):
        value = encode_float64_emulation(complete_graph(n))
        assert value == math.ldexp(1.0, n - 1)
        assert _sig39(int(value)) == mantissa


def _sig39(x: int) -> str:
    s = str(x)
    exp = len(s) - 1
    digits = s[:39]
    if len(s) > 39 and int(s[39]) >= 5:
        digits = str(int(digits) + 1)
        if len(digits) > 39:
            digits = digits[:39]
            exp += 1
    return f"{digits[0]}.{digits[1:]}e{exp}"


def random_code(n, rng):
    """A uniformly drawn scale, then a uniformly drawn value at that scale."""
    scale = int(rng.integers(0, max_scale(n) + 1))
    bits = n - 1 + scale
    numerator = int.from_bytes(rng.bytes(bits // 8 + 1), "little") >> (8 - bits % 8)
    return UbninCode.canonical(n, numerator, scale)


def literal_variants(text, n):
    """Well-formed, malformed, out-of-range and non-dyadic neighbours of a value."""
    point = text if "." in text else text + "."
    last = "7" if text[-1] == "3" else "3"
    return [
        text, f" {text}\n", point + "000", "0" + text, text[:-1] + last, point + "1",
        point + "5", "1" + text, "9" * n, "-" + text, text + "e0", text.replace(".", ".."),
        "0." + "0" * max_scale(n) + "1", "1" + "0" * (n - 2), "1" + "0" * (n - 1),
    ]


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestMatchesIntArithmeticOracles:
    def test_random_codes(self):
        rng = np.random.default_rng(8)
        for n in [2, 3, 4, 400, *rng.integers(2, 401, size=50)]:
            n = int(n)
            code = random_code(n, rng)
            b = decode(code)
            assert b.edges.dtype == bool
            assert b.edges.tobytes() == decode_tril(code).edges.tobytes()
            assert encode(b) == encode_tril(b) == code
            codes = [code, random_code(n, rng), random_code(n, rng)]
            stack = np.stack([decode(c).edges for c in codes])
            assert _encode_stack(stack) == codes
            text = to_decimal_string(code)
            assert text == to_decimal_string_int(code)
            for literal in literal_variants(text, n):
                expected = outcome(parse_decimal_string_int, literal, n)
                assert outcome(parse_decimal_string, literal, n) == expected, literal[:60]

    @pytest.mark.parametrize("n", [2, 3, 7, 90])
    def test_lower_flat_is_read_only_tril_indices(self, n):
        flat = _lower_flat(n)
        assert flat.tolist() == np.ravel_multi_index(np.tril_indices(n, -1), (n, n)).tolist()
        assert not flat.flags.writeable


def random_stack(n, rng):
    """Adjacencies of n nodes: empty, complete, a single edge at each end of
    the lower triangle, and random graphs at densities from 0 to 1."""
    stack = np.zeros((7, n, n), dtype=bool)
    stack[1] = ~np.eye(n, dtype=bool)
    stack[2, 1, 0] = stack[2, 0, 1] = True
    stack[3, n - 1, n - 2] = stack[3, n - 2, n - 1] = True
    for g, p in zip(stack[4:], rng.random(3)):
        g[...] = np.tril(rng.random((n, n)) < p, -1)
        g |= g.T
    return stack


class TestMatchesEarlierCodec:
    """The codec's conversions against their earlier forms in oracles.py."""

    def test_digits_to_int_at_every_length(self):
        # Under the default limit (4300), the least one (640) and none (0).
        rng = np.random.default_rng(30)
        digits = "".join(map(str, rng.integers(0, 10, 10_000)))
        default = sys.get_int_max_str_digits()
        try:
            for length in range(1, 10_001):
                text = digits[-length:]
                want = digits_to_int_split(text)
                for limit in (default, 640, 0):
                    sys.set_int_max_str_digits(limit)
                    assert codec._digits_to_int(text) == want, (length, limit)
        finally:
            sys.set_int_max_str_digits(default)

    def test_encode_stack_at_every_size(self):
        rng = np.random.default_rng(31)
        for n in range(2, 401):
            stack = random_stack(n, rng)
            codes = _encode_stack(stack)
            assert codes == encode_stack_canonical(stack), n
            for code in codes:
                assert all(type(x) is int for x in (code.n, code.numerator, code.scale))
                assert UbninCode(code.n, code.numerator, code.scale) == code

    def test_decode_at_every_size(self):
        rng = np.random.default_rng(32)
        for n in range(2, 401):
            for code in [random_code(n, rng), *edge_codes(n)]:
                got, want = decode(code), decode_scatter(code)
                assert got == want, n
                assert got.edges.dtype == bool and got.edges.flags.c_contiguous
                assert not got.edges.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 90])
    def test_symmetric_index_is_cached_int32(self, n):
        index = codec._symmetric_index(n)
        assert index.dtype == np.int32 and not index.flags.writeable
        assert index is codec._symmetric_index(n)
        limit = codec._symmetric_index.cache_info().maxsize
        assert limit <= codec._lower_flat.cache_info().maxsize


# (n, numerator, scale) of codes the constructor rejects, and its messages.
REJECTED_CODES = [
    ((1, 0, 0), "node count must be >= 2, got 1"),
    ((5, -1, 0), "numerator must be nonnegative"),
    ((5, 1, -1), "scale must be nonnegative"),
    ((5, 1098, 7), "non-canonical code: even numerator with nonzero scale"),
    ((5, 16, 0), "value >= 2^4, out of range for 5 nodes"),
    ((5, 1, 7), "scale 7 exceeds bound 6 for 5 nodes"),
]


class TestOutsideInputChecked:
    """Codes from outside the library pass every check, whatever their types."""

    @pytest.mark.parametrize("fields, message", REJECTED_CODES)
    @pytest.mark.parametrize("kind", [int, np.int64, float])
    def test_rejections(self, fields, message, kind):
        with pytest.raises(MalformedCodeError) as err:
            UbninCode(*map(kind, fields))
        assert str(err.value) == message

    @pytest.mark.parametrize("fields", [(np.int64(3), np.int64(1), np.int64(1)),
                                        (np.uint16(3), np.uint16(1), np.uint16(1)),
                                        (3.0, 1.0, 1.0), (3, True, False)])
    def test_fields_become_ints(self, fields):
        code = UbninCode(*fields)
        assert all(type(x) is int for x in (code.n, code.numerator, code.scale))
        assert (code.n, code.numerator, code.scale) == tuple(map(int, fields))

    def test_record_and_value_rejections(self):
        with pytest.raises(MalformedCodeError, match="^non-canonical code"):
            from_record({"n": 5, "numerator": "1098", "scale": 7})
        with pytest.raises(MalformedCodeError, match="^scale 7 exceeds bound 6 for 5 nodes$"):
            from_record({"n": 5, "numerator": 1, "scale": 7})
        with pytest.raises(MalformedCodeError, match="^node count must be >= 2, got 1$"):
            parse_decimal_string("0", 1)


@st.composite
def small_networks(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    mask = draw(st.integers(min_value=0, max_value=2 ** (n * (n - 1) // 2) - 1))
    return graph_from_bitmask(n, mask)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_networks())
    def test_round_trip_identity(self, b):
        assert decode(encode(b)) == b

    @settings(max_examples=150, deadline=None)
    @given(small_networks())
    def test_bounds_and_integer_part(self, b):
        code = encode(b)
        assert 0 <= code.value < 2 ** (b.n - 1)
        assert code.scale <= (b.n - 2) * (b.n - 1) // 2 if b.n >= 3 else code.scale == 0
        assert math.floor(code.value) == column_codes(b.edges)[-1]

    @settings(max_examples=100, deadline=None)
    @given(small_networks())
    def test_decimal_string_round_trip(self, b):
        code = encode(b)
        assert parse_decimal_string(to_decimal_string(code), b.n) == code


def rendered_one_at_a_time(codes):
    """What ``_render_stack`` must return: each code's value and numerator
    digits as ``to_decimal_string`` and ``to_record`` give them."""
    return [(to_decimal_string(c), to_record(c)["numerator"]) for c in codes]


def edge_codes(n):
    """Zero, one and the largest integer; the smallest and largest values at
    scale 1 and at ``max_scale(n)``; and the complete graph, whose numerator
    is all ones at ``max_scale(n)``."""
    k, pairs = max_scale(n), n * (n - 1) // 2
    codes = [UbninCode(n, 0, 0), UbninCode(n, 1, 0), UbninCode(n, 2 ** (n - 1) - 1, 0),
             UbninCode(n, (1 << pairs) - 1, k), complete_graph_code(n)]
    if k:
        codes += [UbninCode(n, 1, 1), UbninCode(n, (1 << n) - 1, 1), UbninCode(n, 1, k)]
    return codes


def full_scale_code(n, rng):
    """A code at ``max_scale(n)``, as most subjects' codes in a registry are."""
    pairs = n * (n - 1) // 2
    return UbninCode(n, int.from_bytes(rng.bytes(pairs // 8 + 1), "little")
                     >> (8 - pairs % 8) | 1, max_scale(n))


class TestRenderStack:
    """``codec._render_stack`` against the per-code renders and the int
    arithmetic oracle, at every node count its tables cover and just past."""

    def test_every_node_count_to_past_the_table_budget(self):
        rng = np.random.default_rng(27)
        n, past = 2, 0
        while past < 3:
            tables = codec._render_tables(n)
            if tables is None:
                past += 1
            else:
                assert not past, f"tables again at {n} nodes"
                # Every product term is at most 65535 (10^8 - 1), one per
                # 16-bit word: the sums stay integers below 2^53.
                words = (n * (n - 1) // 2 + 15) // 16
                assert [t.shape[0] for t in tables] == [words, words]
                assert words * 65535 * (10 ** 8 - 1) < 2 ** 53
            codes = edge_codes(n) + [random_code(n, rng) for _ in range(4)]
            rendered = codec._render_stack(codes)
            assert rendered == rendered_one_at_a_time(codes), n
            assert [value for value, _ in rendered] == [to_decimal_string_int(c) for c in codes]
            assert [num for _, num in rendered] == [str(c.numerator) for c in codes]
            n += 1
        assert 90 < n - 3 < 200  # a 90-region atlas renders in chunks; 400 regions never

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 63, 64, 65])
    def test_chunk_sizes_and_mixed_scales(self, size):
        # Mostly codes at max_scale(n), as in a registry, mixed with the edge
        # codes and codes at any scale.
        rng = np.random.default_rng(size)
        pool = edge_codes(90) + [random_code(90, rng) for _ in range(8)]
        codes = [pool[i // 3 % len(pool)] if i % 3 == 1 else full_scale_code(90, rng)
                 for i in range(size)]
        assert size == 1 or len({c.scale for c in codes}) > 4
        rendered = codec._render_stack(codes)
        assert rendered == rendered_one_at_a_time(codes)
        assert [value for value, _ in rendered] == [to_decimal_string_int(c) for c in codes]

    def test_empty_chunk(self):
        assert codec._render_stack([]) == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=120), st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_random_chunks(self, n, size, seed):
        rng = np.random.default_rng(seed)
        codes = [random_code(n, rng) for _ in range(size)]
        assert codec._render_stack(codes) == rendered_one_at_a_time(codes)
