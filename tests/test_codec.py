import json
import math
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
from ubnin.codec import _lower_flat, max_scale
from oracles import (
    column_codes,
    decode_tril,
    encode_fraction,
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

    def test_emulation_equals_exact_on_small_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            b = graph_from_bitmask(n, random_bitmask(n * (n - 1) // 2, rng))
            assert encode_float64_emulation(b) == to_float64(encode(b))


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
            assert b.edges.tolist() == decode_tril(code).edges.tolist()
            assert encode(b) == encode_tril(b) == code
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
