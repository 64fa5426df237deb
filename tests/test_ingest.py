"""CDR parsing, validation, and summary tests."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    parse_cdr_stream,
    reference_cdr_lines,
    reference_parse_cdr_csv,
    reference_validate_record,
    table_from_rows,
    table_rows,
    written_cdr,
    written_summary,
)
from volteqa import ingest
from volteqa.cli import repr_g6_column, round_g6
from volteqa.ingest import (
    CDR_COLUMNS,
    Bandwidth,
    CdrTable,
    Codec,
    RejectedRow,
    RejectReason,
    SchemaError,
    write_cdr_csv,
)

HEADER = ",".join(CDR_COLUMNS)
# Chunk sizes that put chunk boundaries between any two rows, and the default.
CHUNK_SIZES = (1, 2, 3, ingest.CHUNK_ROWS)


def parse_text(text: str):
    return parse_cdr_stream(io.StringIO(text))


def test_codec_scale_ceilings():
    assert Codec.AMR.bandwidth is Bandwidth.NARROWBAND
    assert Codec.AMR_WB.bandwidth is Bandwidth.WIDEBAND
    assert Codec.AMR.r_max == 100.0
    assert Codec.AMR_WB.r_max == 129.0


def test_parse_single_valid_row():
    table, rejects = parse_text(f"{HEADER}\nf1,AMR,1000,990,5.0,20.0,\n")
    assert rejects == []
    assert table_rows(table) == [("f1", Codec.AMR, 1000, 990, 5.0, 20.0, None)]
    assert table.tx_packets.dtype == np.int64
    assert np.isnan(table.r_factor[0])


def test_parse_rejects_evs_codec():
    table, rejects = parse_text(f"{HEADER}\nf1,EVS,1000,990,5.0,20.0,\n")
    assert len(table) == 0
    assert len(rejects) == 1
    assert rejects[0].reason is RejectReason.UNSUPPORTED_CODEC
    assert rejects[0].line_no == 2


def test_parse_rejects_inconsistent_jitter():
    table, rejects = parse_text(f"{HEADER}\nf1,AMR,1000,990,20.0,5.0,\n")
    assert len(table) == 0
    assert rejects[0].reason is RejectReason.INCONSISTENT_JITTER


def test_parse_rejects_unparseable_fields():
    table, rejects = parse_text(
        f"{HEADER}\nf1,AMR,abc,990,5.0,20.0,\nf2,AMR,10,10,nan,20.0,80\n"
    )
    assert len(table) == 0
    assert [r.reason for r in rejects] == [RejectReason.BAD_FIELD, RejectReason.BAD_FIELD]


def test_parse_rejects_wrong_field_count():
    _, rejects = parse_text(f"{HEADER}\nf1,AMR,10,10\n")
    assert rejects[0].reason is RejectReason.BAD_FIELD


def test_parse_bad_header_is_fatal():
    with pytest.raises(SchemaError):
        parse_text("flow,codec\nf1,AMR\n")
    with pytest.raises(SchemaError):
        parse_text("")


def test_parse_preserves_row_accounting():
    text = f"{HEADER}\n" + "".join(
        f"f{i},{'AMR' if i % 2 else 'EVS'},10,9,1.0,2.0,\n" for i in range(10)
    )
    table, rejects = parse_text(text)
    assert len(table) + len(rejects) == 10
    assert len(table) == 5


def reasons_of(*rows: str) -> list[RejectReason]:
    return [r.reason for r in parse_text(HEADER + "\n" + "".join(row + "\n" for row in rows))[1]]


def test_validate_r_factor_above_narrowband_ceiling():
    assert reasons_of("f1,AMR,10,10,1.0,2.0,101.0") == [RejectReason.R_OUT_OF_RANGE]


def test_validate_wideband_accepts_high_r():
    assert reasons_of("f1,AMR-WB,10,10,1.0,2.0,120.0") == []


def test_validate_empty_flow():
    assert reasons_of("f1,AMR,0,0,0.0,0.0,") == [RejectReason.EMPTY_FLOW]


def test_validate_negative_counts_checked_first():
    assert reasons_of("f1,AMR,-1,10,5.0,1.0,200.0") == [RejectReason.NEGATIVE_COUNT]


def test_duplicate_flow_ids_are_kept():
    table, rejects = parse_text(
        f"{HEADER}\nsame,AMR,10,9,1.0,2.0,\nsame,AMR,20,19,1.0,2.0,\n"
    )
    assert rejects == []
    assert table.flow_id.tolist() == ["same", "same"]


def test_table_take_selects_rows_of_every_column():
    table = table_from_rows(
        [(f"f{i}", Codec.AMR if i % 2 else Codec.AMR_WB, 10 + i, 9, 1.0, 2.0 + i, None if i == 3 else 50.0)
         for i in range(5)]
    )
    assert len(table) == 5
    expected = table_rows(table)
    assert table_rows(table.take(table.codec == Codec.AMR)) == [expected[1], expected[3]]
    assert table_rows(table.take(slice(2, 4))) == expected[2:4]
    assert table_rows(table.take(np.array([4, 0]))) == [expected[4], expected[0]]


finite_floats = st.floats(min_value=0, max_value=1e6, allow_nan=False)
# Flow ids with the characters a CSV field must quote, non-ASCII text, or nothing.
FLOW_ID_TEXT = st.text(alphabet=st.one_of(st.characters(min_codepoint=32), st.sampled_from(',"\r\n')), max_size=12)


@given(
    st.lists(
        st.tuples(
            FLOW_ID_TEXT,
            st.sampled_from(list(Codec)),
            st.integers(min_value=0, max_value=10**9),
            st.integers(min_value=0, max_value=10**9),
            finite_floats,
            finite_floats,
            st.one_of(st.none(), st.floats(min_value=0, max_value=100, allow_nan=False)),
        ),
        max_size=30,
    ),
    # Counts beyond int64 make object columns of Python ints.
    st.sampled_from([1, 2**63, 10**30]),
)
def test_write_parse_round_trip(raw_rows, count_scale):
    rows = []
    for flow_id, codec, tx, rx, avg_j, max_j, r in raw_rows:
        row = (flow_id, codec, max(tx, 1) * count_scale, rx * count_scale, avg_j, avg_j + max_j, r)
        if reference_validate_record(*row[1:]) is None:
            rows.append(row)
    table = table_from_rows(rows)
    big = bool(rows) and count_scale > 1
    assert (table.tx_packets.dtype == object) is big
    reparsed, rejects = parse_cdr_stream(written_cdr(table))
    assert rejects == []
    assert table_rows(reparsed) == rows
    assert (reparsed.tx_packets.dtype == object) is big


# Scores that test the 6-digit format: signed zeros, NaN, infinities,
# subnormals and decimal ties at the 7th digit (exact for small exponents).
SCORE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 2.2e-308 / 3]),
    st.builds(lambda digits, exp: float(f"{digits}5e{exp}"), st.integers(100_000, 999_999), st.integers(-30, 30)),
)


@st.composite
def tables_and_scores(draw):
    """A table with any flow ids, counts in int64 or beyond it, any floats
    and NaN for absent r_factors, and up to three score columns."""
    width = draw(st.integers(0, 3))
    counts = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**30), 10**30))
    rows = draw(st.lists(st.tuples(
        FLOW_ID_TEXT, st.sampled_from(list(Codec)), counts, counts, st.floats(), st.floats(),
        st.one_of(st.none(), st.floats()), st.lists(SCORE_FLOATS, min_size=width, max_size=width),
    ), max_size=12))
    scores = [np.array([row[-1][k] for row in rows], dtype=float) for k in range(width)]
    return table_from_rows([row[:-1] for row in rows]), scores


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables_and_scores())
def test_written_lines_match_csv_writer_oracle(chunk, table_scores):
    table, scores = table_scores
    assert ingest.cdr_lines(table, *scores) == reference_cdr_lines(table, *scores)
    buffer = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", chunk)
        write_cdr_csv(table, buffer)
    assert buffer.getvalue() == reference_cdr_lines(table)


# Floats at the edges of the renderer's fix-ups as well: integers, values
# within rounding of one, the steps at 1e6 and 1e16 and the smallest normal.
RENDER_FLOATS = st.one_of(
    SCORE_FLOATS,
    st.integers(-(10**17), 10**17).map(float),
    st.builds(lambda n, d: n + d, st.integers(-(10**6), 10**6), st.floats(-2e-5, 2e-5)),
    st.floats(999_990.0, 1_000_010.0),
    st.floats(9.9e15, 1.1e16),
    st.floats(2.2e-308, 2.3e-308),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(RENDER_FLOATS, max_size=8))
def test_rendered_floats_match_repr_of_round_g6(values):
    # simulate writes its floats as this text; NaN is an absent r_factor.
    expected = ["" if math.isnan(v) else repr(round_g6(v)) for v in values]
    assert repr_g6_column(np.array(values, dtype=float)).tolist() == expected


@pytest.mark.parametrize(
    "value,text",
    [(5e-324, "5e-324"), (999_999.5, "1000000.0"), (100.0, "100.0"), (1e-05, "1e-05"), (-0.0, "0.0"),
     (float("nan"), "")],
)
def test_rendered_float_cases(value, text):
    assert repr_g6_column(np.array([value])).tolist() == [text]
    assert math.isnan(value) or repr(round_g6(value)) == text


def test_empty_table_writes_only_the_header():
    table, rejects = parse_text(f"{HEADER}\n")
    assert len(table) == 0 and rejects == []
    assert table.tx_packets.dtype == np.int64 and table.r_factor.dtype == np.float64
    # A block of blank rows parses to the same empty columns.
    (first_line, block), = ingest.cdr_blocks(io.StringIO(f"{HEADER}\n\n\n"))
    blank, blank_rejects = ingest.parse_cdr_csv(block, first_line)
    assert table_rows(blank) == [] and blank_rejects == []
    assert [getattr(blank, name).dtype for name in CDR_COLUMNS] == [getattr(table, name).dtype for name in CDR_COLUMNS]
    buffer = io.StringIO()
    write_cdr_csv(table, buffer)
    assert buffer.getvalue() == ""
    assert written_cdr(table).getvalue() == f"{HEADER}\n"
    summary = written_summary(table.codec_counts(), rejects)
    assert summary["total_flows"] == 0
    assert summary["per_codec_counts"] == {} and summary["per_codec_shares"] == {}
    assert summary["rejected"]["total"] == 0


def _table(codecs) -> CdrTable:
    return table_from_rows([(f"f{i}", codec, 10, 9, 1.0, 2.0, None) for i, codec in enumerate(codecs)])


def test_summarize_shares_match_mix():
    summary = written_summary(_table([Codec.AMR] * 71 + [Codec.AMR_WB] * 29).codec_counts(), [])
    assert summary["total_flows"] == 100
    assert summary["per_codec_counts"] == {"AMR": 71, "AMR-WB": 29}
    assert summary["per_codec_shares"] == {"AMR": 0.71, "AMR-WB": 0.29}
    assert abs(sum(summary["per_codec_shares"].values()) - 1.0) <= 1e-9


def test_summarize_single_codec_and_empty():
    assert written_summary(_table([Codec.AMR] * 10).codec_counts(), [])["per_codec_shares"] == {"AMR": 1.0}
    empty = written_summary(_table([]).codec_counts(), [])
    assert empty["total_flows"] == 0
    assert empty["per_codec_shares"] == {}


def test_summarize_is_permutation_invariant():
    table = _table([Codec.AMR if i % 3 else Codec.AMR_WB for i in range(40)])
    base = written_summary(table.codec_counts(), [])
    rng = np.random.default_rng(7)
    for _ in range(5):
        assert written_summary(table.take(rng.permutation(len(table))).codec_counts(), []) == base
    # Nor on the order of the counts.
    assert written_summary(dict(reversed(table.codec_counts().items())), []) == base


def test_summary_reports_reject_breakdown():
    text = f"{HEADER}\nf1,EVS,10,9,1,2,\nf2,AMR,10,9,5,1,\nf3,AMR,10,9,1,2,\n"
    table, rejects = parse_text(text)
    summary = written_summary(table.codec_counts(), rejects)
    assert summary["rejected"]["total"] == 2
    assert summary["rejected"]["by_reason"] == {"UNSUPPORTED_CODEC": 1, "INCONSISTENT_JITTER": 1}
    assert summary["rejected"]["rows"] == [
        {"line_no": 2, "reason": "UNSUPPORTED_CODEC", "detail": "codec 'EVS'"},
        {"line_no": 3, "reason": "INCONSISTENT_JITTER", "detail": "INCONSISTENT_JITTER"},
    ]
    assert summary["per_codec_counts"] == {"AMR": 1}


# ------------------------------------------------ column-wise parsing


def parse_in_chunks(text: str, chunk: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_ROWS", chunk)
        return parse_text(text)


def assert_parse_matches_oracle(text: str, chunk: int) -> None:
    table, rejects = parse_in_chunks(text, chunk)
    rows, expected_rejects = reference_parse_cdr_csv(io.StringIO(text))
    assert table_rows(table) == rows
    # repr tells -0.0 from 0.0 and a float from an equal int.
    assert repr(table_rows(table)) == repr(rows)
    assert rejects == expected_rejects
    expected = table_from_rows(rows)
    for name in CDR_COLUMNS:
        assert getattr(table, name).dtype == getattr(expected, name).dtype, name


# Cells of accepted rows (the Unicode one is Arabic-Indic 12), then cells that
# fail a conversion or an acceptance rule.
GOOD_COUNTS = ["0", "1", "12", "1_000", "+5", "\u0661\u0662", " 7 ", str(2**63 - 1), str(2**63), "9" * 30]
BAD_COUNTS = ["-3", str(-(2**63) - 1), "abc", "", "1.5", "1e3"]
GOOD_FLOATS = ["0", "1.5", "-0.0", " 2.5 ", "1_000", "+5", "\u0661\u0662", "20", "5e-324", "1e3"]
BAD_FLOATS = ["nan", "inf", "-inf", "1e999", "-1", "abc", ""]
GOOD_R = ["", "0", "-0.0", "99.5", "100", "100.5", "129", "130"]
FLOW_IDS = st.sampled_from(["f1", "", " f 2 ", "a,b", 'q"t', "same", "l\nf", "\u00e9t\u00e9"])
good_row = st.tuples(
    FLOW_IDS, st.sampled_from(["AMR", "AMR-WB"]), *[st.sampled_from(GOOD_COUNTS)] * 2,
    *[st.sampled_from(GOOD_FLOATS)] * 2, st.sampled_from(GOOD_R),
).map(list)
any_row = st.tuples(
    FLOW_IDS, st.sampled_from(["AMR", "AMR-WB", "EVS", "", " AMR", "amr"]),
    *[st.sampled_from(GOOD_COUNTS + BAD_COUNTS)] * 2,
    *[st.sampled_from(GOOD_FLOATS + BAD_FLOATS)] * 2, st.sampled_from(GOOD_R + BAD_FLOATS),
).map(list)
cdr_rows = st.one_of(
    good_row,
    good_row,
    any_row,
    st.just([]),  # a blank line
    st.lists(st.sampled_from(GOOD_COUNTS + ["AMR"]), max_size=9),  # short and long rows
)


def csv_text(rows, line_end: str = "\n") -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=line_end).writerows([CDR_COLUMNS, *rows])
    return buffer.getvalue()


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(cdr_rows, max_size=14), line_end=st.sampled_from(["\n", "\n", "\r\n"]))
def test_parse_matches_per_row_oracle(chunk, rows, line_end):
    assert_parse_matches_oracle(csv_text(rows, line_end), chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_parse_reads_past_chunks_of_blank_rows(chunk):
    text = f"{HEADER}\n" + "\n" * 10 + "f1,AMR,10,9,1.0,2.0,\n" + "\n" * 7 + "f2,EVS,10,9,1.0,2.0,\n"
    table, rejects = parse_in_chunks(text, chunk)
    assert table.flow_id.tolist() == ["f1"]
    assert rejects == [RejectedRow(20, RejectReason.UNSUPPORTED_CODEC, "codec 'EVS'")]
    assert_parse_matches_oracle(text, chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_reject_line_numbers_cross_chunk_boundaries(chunk):
    lines = [f"f{i},{'EVS' if i % 3 == 0 else 'AMR'},10,9,1.0,2.0," if i % 4 else "" for i in range(25)]
    table, rejects = parse_in_chunks(HEADER + "\n" + "\n".join(lines) + "\n", chunk)
    assert [r.line_no for r in rejects] == [i + 2 for i in range(25) if i % 4 and i % 3 == 0]
    assert len(table) == sum(1 for i in range(25) if i % 4 and i % 3)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_counts_beyond_int64_in_some_chunks_stay_exact(chunk):
    counts = [10, 11, 12, 13, 2**63 + 7, 14, 10**30]
    text = HEADER + "\n" + "".join(f"f{i},AMR,{n},{n - 1},1.0,2.0,\n" for i, n in enumerate(counts))
    table, rejects = parse_in_chunks(text, chunk)
    assert rejects == []
    assert table.tx_packets.dtype == object and table.rx_packets.dtype == object
    assert table.tx_packets.tolist() == counts
    assert all(type(n) is int for n in table.tx_packets.tolist() + table.rx_packets.tolist())
    assert_parse_matches_oracle(text, chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_count_beyond_the_int_digit_limit_matches_oracle(chunk):
    # int() refuses a decimal of more than 4,300 digits by default since
    # Python 3.11, so such a count is a BAD_FIELD there.
    text = f"{HEADER}\nf1,AMR,10,-1,1.0,2.0,\nf2,AMR,{'9' * 5000},9,1.0,2.0,\nf3,AMR,1x,9,1.0,2.0,\n"
    assert_parse_matches_oracle(text, chunk)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_count_beyond_int64_in_a_rejected_row_keeps_int64(chunk):
    text = f"{HEADER}\nf1,AMR,10,9,1.0,2.0,\nf2,EVS,{2**70},9,1.0,2.0,\nf3,AMR,{2**70},9,5.0,1.0,\n"
    table, rejects = parse_in_chunks(text, chunk)
    assert [r.reason for r in rejects] == [RejectReason.UNSUPPORTED_CODEC, RejectReason.INCONSISTENT_JITTER]
    assert table.tx_packets.dtype == np.int64


@pytest.mark.parametrize("path", ["split", "csv_reader"])
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_short_and_long_rows_reject_with_their_own_field_count(chunk, path):
    # Padded, the 3-field row has empty counts and jitter; cut, the 8-field
    # row names an unknown codec and has max jitter below average.  Only
    # the field count may name either.  A quoted field sends the whole
    # file to csv.reader.
    first = '"f1"' if path == "csv_reader" else "f1"
    text = (
        f"{HEADER}\n{first},AMR,10,9,1.0,2.0,\n"
        "f2,AMR,10\n\nf3,EVS,10,9,5.0,1.0,,extra\nf4,AMR-WB,10,9,1.0,2.0,120\n"
    )
    with pytest.MonkeyPatch.context() as patch:
        if path == "split":
            patch.setattr(ingest, "_reader_blocks", None)  # calling it fails the test
        table, rejects = parse_in_chunks(text, chunk)
    assert table.flow_id.tolist() == ["f1", "f4"]
    assert rejects == [
        RejectedRow(3, RejectReason.BAD_FIELD, "expected 7 fields, got 3"),
        RejectedRow(5, RejectReason.BAD_FIELD, "expected 7 fields, got 8"),
    ]
    # json.dumps of the summary refuses numpy integers.
    assert all(type(r.line_no) is int for r in rejects)
    assert_parse_matches_oracle(text, chunk)


# ------------------------------------------------------ block splitter


def block_rows(block: ingest.CsvBlock) -> list[tuple[int, list[str]]]:
    """A block's rows, each as its field count and its cells at the
    header's width; a blank row has no cells."""
    nonblank = int(np.count_nonzero(block.fields))
    assert all(len(column) == nonblank for column in block.columns)
    cells = iter([[column[row] for column in block.columns] for row in range(nonblank)])
    return [(n, next(cells) if n else []) for n in block.fields.tolist()]


def split_text(text: str, chunk: int):
    """The header and rows of ``csv_blocks`` over a stream that splits
    lines as a file opened with ``newline=""`` does, or its csv.Error."""
    sizes = []
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_ROWS", chunk)
            header, blocks = ingest.csv_blocks(io.StringIO(text, newline=""))
            rows = []
            for block in blocks:
                sizes.append(len(block.fields))
                rows += block_rows(block)
    except csv.Error as exc:
        return "csv.Error", str(exc)
    # Every block is full but the last, so a block's rows start where the
    # one before ended.
    assert sizes[:-1] == [chunk] * (len(sizes) - 1) and 0 not in sizes
    return header, rows


def read_text(text: str):
    """The header and rows of ``csv.reader`` over the same stream, or its
    csv.Error.  Each row is its field count and its cells at the header's
    width, as ``csv.DictReader`` reads them: a short row padded with empty
    cells, a long row cut; a blank row has no cells."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        return "csv.Error", str(exc)
    if not rows:
        return None, []
    width = len(rows[0])
    cells = [[row[i] if i < len(row) else "" for i in range(width)] if row else [] for row in rows[1:]]
    return rows[0], [(len(row), row_cells) for row, row_cells in zip(rows[1:], cells)]


# A field limit that short lines reach: a field beyond it is a csv.Error,
# and a longer line of short fields is not.
SHORT_FIELD_LIMIT = 16
HEADERS = st.sampled_from(["h1,h2,h3\n"] * 4 + ["h\n", "\n", "", '"h1","h\n2"\n', "h1,h2\r\n"])
# Plain pieces: cells, commas, newlines, spaces and non-ASCII text (one
# character of four bytes in UTF-8).
PLAIN_PIECES = st.sampled_from(["a", "1.5", "", ",", ",", "\n", "\n", " ", "\u00e9t\u00e9", "\u0661\u0662", "\U0001f600"])
# Then what only csv.reader splits: quotes (one quoted field holds a
# newline), CR LF and lone CR line ends, NUL and fields and lines beyond
# the short limit.
ANY_PIECES = st.one_of(
    PLAIN_PIECES,
    st.sampled_from(["\r\n", "\r", '"q,\n"', '"x""y"', '"', "\0", "x" * (SHORT_FIELD_LIMIT + 1), "b," * SHORT_FIELD_LIMIT]),
)


@pytest.mark.parametrize("limit", [None, SHORT_FIELD_LIMIT], ids=["default_limit", "short_limit"])
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(header=HEADERS, plain=st.lists(PLAIN_PIECES, max_size=30), tail=st.lists(ANY_PIECES, max_size=12))
def test_csv_blocks_match_csv_reader(limit, chunk, header, plain, tail):
    # Plain lines first, so that blocks before the first that csv.reader
    # must read are split on commas.  NUL is an error of csv.reader up to
    # Python 3.10 and a plain character since 3.11; either way the result
    # is the running interpreter's.
    text = header + "".join(plain) + "".join(tail)
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert split_text(text, chunk) == read_text(text)
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_quoted_newline_across_a_block_boundary(chunk):
    text = 'h1,h2\np,q\n"x\ny",z\nr,s\n'
    assert split_text(text, chunk) == (["h1", "h2"], [(2, ["p", "q"]), (2, ["x\ny", "z"]), (2, ["r", "s"])])
    assert split_text(text, chunk) == read_text(text)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_plain_ragged_text_never_reaches_csv_reader(chunk):
    text = "h1,h2,h3\na,b,c\n\n  \nd,e\n\u00e9t\u00e9,f,g,h\ni,j,k"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_reader_blocks", None)  # calling it fails the test
        assert split_text(text, chunk) == read_text(text)
