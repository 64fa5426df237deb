"""CDR parsing, validation, and summary tests."""

import io
import random

import pytest
from hypothesis import given, strategies as st

from volteqa.ingest import (
    CDR_COLUMNS,
    Bandwidth,
    Codec,
    FlowRecord,
    RejectReason,
    SchemaError,
    parse_cdr_csv,
    summarize_dataset,
    summary_as_dict,
    validate_record,
    write_cdr_csv,
)

HEADER = ",".join(CDR_COLUMNS)


def parse_text(text: str):
    return parse_cdr_csv(io.StringIO(text))


def test_codec_scale_ceilings():
    assert Codec.AMR.bandwidth is Bandwidth.NARROWBAND
    assert Codec.AMR_WB.bandwidth is Bandwidth.WIDEBAND
    assert Codec.AMR.r_max == 100.0
    assert Codec.AMR_WB.r_max == 129.0


def test_parse_single_valid_row():
    records, rejects = parse_text(f"{HEADER}\nf1,AMR,1000,990,5.0,20.0,\n")
    assert rejects == []
    assert records == [
        FlowRecord("f1", Codec.AMR, 1000, 990, 5.0, 20.0, None)
    ]


def test_parse_rejects_evs_codec():
    records, rejects = parse_text(f"{HEADER}\nf1,EVS,1000,990,5.0,20.0,\n")
    assert records == []
    assert len(rejects) == 1
    assert rejects[0].reason is RejectReason.UNSUPPORTED_CODEC
    assert rejects[0].line_no == 2


def test_parse_rejects_inconsistent_jitter():
    records, rejects = parse_text(f"{HEADER}\nf1,AMR,1000,990,20.0,5.0,\n")
    assert records == []
    assert rejects[0].reason is RejectReason.INCONSISTENT_JITTER


def test_parse_rejects_unparseable_fields():
    records, rejects = parse_text(
        f"{HEADER}\nf1,AMR,abc,990,5.0,20.0,\nf2,AMR,10,10,nan,20.0,80\n"
    )
    assert records == []
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
    records, rejects = parse_text(text)
    assert len(records) + len(rejects) == 10
    assert len(records) == 5


def test_validate_r_factor_above_narrowband_ceiling():
    record = FlowRecord("f", Codec.AMR, 10, 10, 1.0, 2.0, r_factor=101.0)
    assert validate_record(record) is RejectReason.R_OUT_OF_RANGE


def test_validate_wideband_accepts_high_r():
    record = FlowRecord("f", Codec.AMR_WB, 10, 10, 1.0, 2.0, r_factor=120.0)
    assert validate_record(record) is None


def test_validate_empty_flow():
    record = FlowRecord("f", Codec.AMR, 0, 0, 0.0, 0.0)
    assert validate_record(record) is RejectReason.EMPTY_FLOW


def test_validate_negative_counts_checked_first():
    record = FlowRecord("f", Codec.AMR, -1, 10, 5.0, 1.0, r_factor=200.0)
    assert validate_record(record) is RejectReason.NEGATIVE_COUNT


def test_duplicate_flow_ids_are_kept():
    records, rejects = parse_text(
        f"{HEADER}\nsame,AMR,10,9,1.0,2.0,\nsame,AMR,20,19,1.0,2.0,\n"
    )
    assert rejects == []
    assert [r.flow_id for r in records] == ["same", "same"]


finite_floats = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(
    st.lists(
        st.tuples(
            st.text(alphabet=st.characters(blacklist_characters=",\r\n\"", min_codepoint=32), max_size=12),
            st.sampled_from(list(Codec)),
            st.integers(min_value=0, max_value=10**9),
            st.integers(min_value=0, max_value=10**9),
            finite_floats,
            finite_floats,
            st.one_of(st.none(), st.floats(min_value=0, max_value=100, allow_nan=False)),
        ),
        max_size=30,
    )
)
def test_write_parse_round_trip(raw_rows):
    records = []
    for flow_id, codec, tx, rx, avg_j, max_j, r in raw_rows:
        record = FlowRecord(flow_id, codec, max(tx, 1), rx, avg_j, avg_j + max_j, r)
        if validate_record(record) is None:
            records.append(record)
    buffer = io.StringIO()
    write_cdr_csv(records, buffer)
    buffer.seek(0)
    reparsed, rejects = parse_cdr_csv(buffer)
    assert rejects == []
    assert reparsed == records


def test_summarize_shares_match_mix():
    records = [
        FlowRecord(f"a{i}", Codec.AMR, 10, 10, 0.0, 0.0) for i in range(71)
    ] + [
        FlowRecord(f"b{i}", Codec.AMR_WB, 10, 10, 0.0, 0.0) for i in range(29)
    ]
    summary = summarize_dataset(records)
    assert summary.total_flows == 100
    assert summary.per_codec_shares == {Codec.AMR: 0.71, Codec.AMR_WB: 0.29}
    assert abs(sum(summary.per_codec_shares.values()) - 1.0) <= 1e-9


def test_summarize_single_codec_and_empty():
    only_amr = [FlowRecord(f"a{i}", Codec.AMR, 10, 10, 0.0, 0.0) for i in range(10)]
    assert summarize_dataset(only_amr).per_codec_shares == {Codec.AMR: 1.0}
    empty = summarize_dataset([])
    assert empty.total_flows == 0
    assert empty.per_codec_shares == {}


def test_summarize_is_permutation_invariant():
    records = [
        FlowRecord(f"f{i}", Codec.AMR if i % 3 else Codec.AMR_WB, 10, 9, 1.0, 2.0)
        for i in range(40)
    ]
    base = summarize_dataset(records)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert summarize_dataset(shuffled) == base


def test_summary_reports_reject_breakdown():
    text = f"{HEADER}\nf1,EVS,10,9,1,2,\nf2,AMR,10,9,5,1,\nf3,AMR,10,9,1,2,\n"
    records, rejects = parse_text(text)
    summary = summarize_dataset(records, rejects)
    assert summary.rejected_total == 2
    assert summary.rejected_by_reason == {
        RejectReason.UNSUPPORTED_CODEC: 1,
        RejectReason.INCONSISTENT_JITTER: 1,
    }
    doc = summary_as_dict(summary)
    assert doc["rejected"]["by_reason"] == {"UNSUPPORTED_CODEC": 1, "INCONSISTENT_JITTER": 1}
    assert doc["per_codec_counts"] == {"AMR": 1}
