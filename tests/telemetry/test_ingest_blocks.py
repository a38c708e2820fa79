"""Columnar block ingest against the per-line oracles it replaces.

The block parser reads dumps in blocks of whole lines.  gNMI lines of the
exact shape :func:`~repro.telemetry.ingest.export_gnmi_dump` writes take a
regex fast path; SNMP rows are split on commas into a ``rows x metrics``
array; :meth:`PairAccumulator.add_block` appends whole blocks.  Each of
those must be indistinguishable from the reference it shortcuts:

* the fast paths yield the same updates -- or the same error text at the
  same line -- as ``_parse_gnmi_line`` / ``csv.reader`` + ``_parse_snmp_row``;
* ``add_block`` leaves the same buffers, first-seen key order, spill
  traffic and peak as one ``add`` per update.

Plus the two input-boundary fixes that ride along: integers too large for
a float and invalid UTF-8 are ``ValueError``s naming the file and line,
which quarantine mode skips, at any worker count.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.telemetry.ingest as ingest
from repro.records import MemoryRecordSink
from repro.telemetry.dataset import DatasetConfig, FleetDataset
from repro.telemetry.ingest import (GNMI_FORMAT, SNMP_FORMAT, PairAccumulator,
                                    TelemetryDump, _parse_gnmi_line, _parse_snmp_row,
                                    ingest_dump, sniff_format)

DIFFERENTIAL = settings(max_examples=150, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])

#: Block sizes that put block boundaries inside, between and around lines.
BLOCK_SIZES = st.sampled_from([7, 64, 1 << 15])


def _bits(value: float) -> str:
    return float(value).hex()  # tells -0.0 from 0.0


def _stream(dump: TelemetryDump) -> tuple[list, list]:
    """(updates, failures) of a dump as the block parser reads it."""
    failures: list[tuple[int, str]] = []
    updates = [(_bits(u.timestamp), u.device, u.metric, _bits(u.value))
               for u in dump.updates(lambda line, error: failures.append(
                   (line, str(error))))]
    return updates, failures


# ----------------------------------------------------------------------
# gNMI: skeleton fast path == _parse_gnmi_line
# ----------------------------------------------------------------------
#: Well-formed field values, and odd ones that probe every fast-path rule.
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
ODD_NUMBERS = st.one_of(
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["-0", "0", "-0.0", "1e400", "-1e400", "1E5", "2.0E+2", "1.5e-3",
                     "5e-324", "01.5", "1.", ".5", "+1.0", "1" + "0" * 400,
                     "1" + "0" * 400 + ".0", "NaN", "Infinity", "1_0.0", "١.٥",
                     "true", '"1.0"', "1e", "-"]))
NAMES = st.sampled_from(["dev-1", "dev-2", "/system/cpus/cpu/state/total/p5", "é"])
ODD_NAMES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
            max_size=6),
    st.sampled_from(["", "  ", " dev-1 ", " dev-1", "\u2003dev-1", "\u00a0",
                     "\u2028", "\\n", "a\\u0041", '\\"', "\\\\", "\x01", "\x1f",
                     "\x7f", " /system/cpus/cpu/state/total/p5"]))


@st.composite
def gnmi_lines(draw) -> str:
    """A skeleton-shaped line with at most one odd field, or another shape."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "{}", "[1]", "!corrupted! {",
                                     '{"timestamp": 1.0}']))
    fields = [draw(NUMBERS), draw(NAMES), draw(NAMES), draw(NUMBERS)]
    odd = draw(st.integers(0, 4))
    if odd < 4:
        fields[odd] = draw(ODD_NUMBERS if odd in (0, 3) else ODD_NAMES)
    line = (f'{{"timestamp": {fields[0]}, "device": "{fields[1]}", '
            f'"path": "{fields[2]}", "value": {fields[3]}}}')
    return draw(st.sampled_from(["", "", " "])) + line + draw(
        st.sampled_from(["", "", " ", "\r"]))


def _gnmi_oracle(lines: list[str], path: Path) -> tuple[list, list]:
    updates, failures = [], []
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            update = _parse_gnmi_line(stripped, path, line_number)
        except ValueError as error:
            failures.append((line_number, str(error)))
        else:
            updates.append((_bits(update.timestamp), update.device, update.metric,
                            _bits(update.value)))
    return updates, failures


class TestGnmiFastPath:
    @DIFFERENTIAL
    @given(lines=st.lists(gnmi_lines(), min_size=1, max_size=12),
           block_bytes=BLOCK_SIZES, final_newline=st.booleans())
    def test_matches_the_validator_line_for_line(self, lines, block_bytes,
                                                 final_newline):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "dump.jsonl"
            path.write_bytes(("\n".join(lines) + ("\n" if final_newline else ""))
                             .encode("utf-8"))
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                assert _stream(TelemetryDump(path, GNMI_FORMAT)) == \
                    _gnmi_oracle(lines, path)

    def test_fast_path_takes_the_exported_shape(self, tmp_path):
        fleet = FleetDataset(DatasetConfig(pair_count=4, seed=2, trace_duration=600.0))
        dump = fleet.export_gnmi_dump(tmp_path / "fleet.jsonl")
        lines = dump.read_text().splitlines()
        assert all(ingest._GNMI_SKELETON.fullmatch(line) for line in lines)
        with mock.patch.object(ingest, "_parse_gnmi_line",
                               side_effect=AssertionError("validator called")):
            assert len(list(TelemetryDump(dump, GNMI_FORMAT).updates())) == len(lines)


# ----------------------------------------------------------------------
# SNMP: comma-split row blocks == csv.reader + _parse_snmp_row
# ----------------------------------------------------------------------
SNMP_HEADER = ["timestamp", "device", "/system/cpus/cpu/state/total/p5", "custom"]

STAMPS = st.sampled_from(["0.0", "30.0", "60.5"])
ODD_STAMPS = st.sampled_from(["60", "1_0", " 90.0", "", "nan", "t", '"120.0"', "1e400"])
DEVICES = st.sampled_from(["d1", "d2"])
ODD_DEVICES = st.sampled_from([" d1 ", "", "  ", '"d,3"', "d1 ", '"d1"'])
CELLS = st.sampled_from(["", "1.5", "-0.0", "1e3"])
ODD_CELLS = st.sampled_from([" ", "1_000", " 2.5 ", "nan", "inf", "-Infinity", "x",
                             "1e400", '"4.5"', '"1,5"', '""', "  7 ", "١", "\u2003"])


@st.composite
def snmp_rows(draw) -> str:
    """A row with at most one odd cell or a wrong width, or another shape."""
    if draw(st.integers(0, 14)) == 0:
        return draw(st.sampled_from(["", " ", ",,,", "a,b"]))
    cells = [draw(STAMPS), draw(DEVICES), draw(CELLS), draw(CELLS)]
    odd = draw(st.integers(0, 5))
    if odd < 4:
        cells[odd] = draw((ODD_STAMPS, ODD_DEVICES, ODD_CELLS, ODD_CELLS)[odd])
    elif odd == 4:
        cells = cells[:3] if draw(st.booleans()) else cells + [draw(CELLS)]
    return ",".join(cells)


def _snmp_oracle(path: Path) -> tuple[list, list]:
    updates, failures = [], []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        metrics = ingest._validate_snmp_header(header, path, 1)
        for row in reader:
            if not row:
                continue
            try:
                parsed = _parse_snmp_row(row, header, metrics, path, reader.line_num)
            except ValueError as error:
                failures.append((reader.line_num, str(error)))
            else:
                updates.extend((_bits(u.timestamp), u.device, u.metric, _bits(u.value))
                               for u in parsed)
    return updates, failures


class TestSnmpBlockPath:
    @DIFFERENTIAL
    @given(rows=st.lists(snmp_rows(), min_size=1, max_size=14),
           block_bytes=BLOCK_SIZES, crlf=st.booleans())
    def test_matches_csv_reader_row_for_row(self, rows, block_bytes, crlf):
        end = "\r\n" if crlf else "\n"
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "dump.csv"
            path.write_bytes((end.join([",".join(SNMP_HEADER)] + rows) + end)
                             .encode("utf-8"))
            with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
                assert _stream(TelemetryDump(path, SNMP_FORMAT)) == _snmp_oracle(path)

    @pytest.mark.parametrize("block_bytes", [16, 1 << 15])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_quoted_cell_spanning_lines_is_one_record(self, tmp_path, end, block_bytes):
        rows = [",".join(SNMP_HEADER), "0.0,d1,1.0,2.0", '30.0,d1,"3.0', '",4.0',
                '60.0,d1,"x', 'y",5.0', "90.0,d1,,6.0"]
        path = tmp_path / "dump.csv"
        path.write_bytes((end.join(rows) + end).encode("utf-8"))
        with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
            updates, failures = _stream(TelemetryDump(path, SNMP_FORMAT))
        assert (updates, failures) == _snmp_oracle(path)
        assert [line for line, _ in failures] == [6]


    def test_short_and_long_rows_never_realign(self, tmp_path):
        # 3 + 5 cells are 2 rows' worth: a width check must catch them.
        path = tmp_path / "dump.csv"
        path.write_text(",".join(SNMP_HEADER) + "\n0.0,d1,1.0\n30.0,60.0,d2,1.0,2.0\n"
                        "90.0,d1,3.0,4.0\n", encoding="utf-8")
        updates, failures = _stream(TelemetryDump(path, SNMP_FORMAT))
        assert (updates, failures) == _snmp_oracle(path)
        assert [line for line, _ in failures] == [2, 3]

    def test_fast_path_takes_the_exported_shape(self, tmp_path):
        fleet = FleetDataset(DatasetConfig(pair_count=4, seed=2, trace_duration=600.0))
        dump = fleet.export_snmp_dump(tmp_path / "fleet.csv")
        assert b'"' not in dump.read_bytes() and b",," in dump.read_bytes()
        with mock.patch.object(ingest, "_parse_snmp_row",
                               side_effect=AssertionError("validator called")):
            assert len(list(TelemetryDump(dump, SNMP_FORMAT).updates())) == sum(
                len(trace) for _, trace in fleet.traces())


# ----------------------------------------------------------------------
# PairAccumulator.add_block == add per update
# ----------------------------------------------------------------------
class TestAddBlock:
    @DIFFERENTIAL
    @given(budget=st.integers(2, 48),
           stream=st.lists(st.tuples(st.integers(0, 6), st.floats(-1e3, 1e3),
                                     st.floats(-1e3, 1e3)), max_size=240),
           cuts=st.lists(st.integers(0, 240), max_size=8))
    def test_matches_per_update_add(self, budget, stream, cuts):
        keys = [("m", f"d{index}") for index in range(7)]
        with tempfile.TemporaryDirectory() as scratch:
            looped = PairAccumulator(Path(scratch) / "loop", budget)
            blocked = PairAccumulator(Path(scratch) / "block", budget)
            for code, timestamp, value in stream:
                looped.add(keys[code], timestamp, value)
            codes = np.array([code for code, _, _ in stream], dtype=np.intp)
            times = np.array([timestamp for _, timestamp, _ in stream])
            values = np.array([value for _, _, value in stream])
            bounds = sorted({0, len(stream), *(min(cut, len(stream)) for cut in cuts)})
            for start, stop in zip(bounds, bounds[1:]):
                blocked.add_block(keys, codes[start:stop], times[start:stop],
                                  values[start:stop])
            for counter in ("total_samples", "buffered_samples",
                            "peak_buffered_samples", "spilled_samples", "spill_writes"):
                assert getattr(blocked, counter) == getattr(looped, counter), counter
            assert blocked.keys() == looped.keys()
            for key in looped.keys():
                for left, right in zip(looped.samples(key), blocked.samples(key)):
                    assert left.tobytes() == right.tobytes()


# ----------------------------------------------------------------------
# Input-boundary fixes: oversized integers, invalid UTF-8
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gnmi_dump(tmp_path_factory) -> Path:
    fleet = FleetDataset(DatasetConfig(pair_count=6, seed=4, trace_duration=3600.0,
                                       metrics=("Temperature", "Unicast bytes")))
    return fleet.export_gnmi_dump(tmp_path_factory.mktemp("dumps") / "fleet.jsonl")


def _with_line(dump: Path, destination: Path, index: int, line: bytes) -> Path:
    lines = dump.read_bytes().splitlines(keepends=True)
    lines[index] = line
    destination.write_bytes(b"".join(lines))
    return destination


def _published(directory: Path) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


HUGE = ('{"timestamp": 1' + "0" * 400 + ', "device": "dev", "path": "p", '
        '"value": 1.0}\n').encode()
BAD_UTF8 = b'{"timestamp": 30.0, "device": "d\xff\xfe", "path": "p", "value": 1.0}\n'
BOUNDARY_LINES = [(HUGE, "out of float range"), (BAD_UTF8, "invalid UTF-8")]


#: Byte fragments whose concatenations probe the dump readers' edge cases.
FUZZ_PIECES = [b'{"timestamp": 1.0, "device": "d", "path": "p", "value": 2.0}', b"\n",
               b"\r", b"\r\n", b'"', b",", b"\xff", b"\xc3", b"\x00", b"1e400", b"-0",
               b"timestamp,device,m", b"0.0,d,1.0", b"[", b"{", b" ", b"1" * 500]


class TestInputBoundaries:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(parts=st.lists(st.sampled_from(FUZZ_PIECES), max_size=20),
           fmt=st.sampled_from([GNMI_FORMAT, SNMP_FORMAT, None]),
           on_error=st.sampled_from(["raise", "quarantine"]))
    def test_any_bytes_ingest_or_raise_a_value_error_naming_the_file(
            self, parts, fmt, on_error):
        with tempfile.TemporaryDirectory() as scratch:
            dump = Path(scratch) / "dump"
            dump.write_bytes(b"".join(parts))
            try:
                ingest_dump(dump, Path(scratch) / "fleet", fmt=fmt, on_error=on_error)
            except ValueError as error:
                assert str(dump) in str(error)

    def test_bare_carriage_return_in_the_snmp_header(self, tmp_path):
        dump = tmp_path / "dump.csv"
        dump.write_bytes(b"timestamp,device,m\rx\n0.0,d,1.0\n")
        with pytest.raises(ValueError, match=r"dump\.csv, line 1: malformed CSV"):
            ingest_dump(dump, tmp_path / "fleet", fmt=SNMP_FORMAT)

    @pytest.mark.parametrize("line,reason", BOUNDARY_LINES, ids=["huge-int", "bad-utf8"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_mode_names_file_and_line(self, gnmi_dump, tmp_path, line, reason,
                                            workers):
        dump = _with_line(gnmi_dump, tmp_path / "dirty.jsonl", 4, line)
        with pytest.raises(ValueError, match=rf"dirty\.jsonl, line 5: .*{reason}"):
            ingest_dump(dump, tmp_path / "fleet", workers=workers)
        assert not (tmp_path / "fleet").exists()

    @pytest.mark.parametrize("line,reason", BOUNDARY_LINES, ids=["huge-int", "bad-utf8"])
    def test_quarantine_skips_the_line_at_any_worker_count(self, gnmi_dump, tmp_path,
                                                           line, reason):
        dump = _with_line(gnmi_dump, tmp_path / "dirty.jsonl", 4, line)
        published = {}
        for workers in (1, 2):
            sink = MemoryRecordSink()
            out = tmp_path / f"fleet-w{workers}"
            ingest_dump(dump, out, on_error="quarantine", failure_sink=sink,
                        workers=workers)
            failures = [f for block in sink.blocks() for f in block.failures()]
            assert [f.provenance for f in failures] == [f"{dump}:5"]
            assert reason in failures[0].message
            assert json.loads((out / "manifest.json").read_text())[
                "ingest"]["quarantined_lines"] == [5]
            published[workers] = _published(out)
        assert published[1] == published[2]

    def test_snmp_row_with_invalid_utf8_is_quarantined(self, tmp_path):
        dump = tmp_path / "dump.csv"
        dump.write_bytes(b"timestamp,device,m\n0.0,d,1.0\n30.0,d\xff,2.0\n"
                         b"60.0,d,3.0\n")
        sink = MemoryRecordSink()
        fleet = ingest_dump(dump, tmp_path / "fleet", on_error="quarantine",
                            failure_sink=sink)
        failures = [f for block in sink.blocks() for f in block.failures()]
        assert [f.provenance for f in failures] == [f"{dump}:3"]
        assert len(fleet.load(fleet.pairs()[0])) == 2

    def test_sniff_and_header_reject_invalid_utf8_with_path_and_line(self, tmp_path):
        dump = tmp_path / "dump.csv"
        dump.write_bytes(b"\n\xfftimestamp,device,m\n0.0,d,1.0\n")
        with pytest.raises(ValueError, match=r"dump\.csv, line 2: invalid UTF-8"):
            sniff_format(dump)
        with pytest.raises(ValueError, match=r"dump\.csv, line 2: invalid UTF-8"):
            ingest_dump(dump, tmp_path / "fleet", fmt=SNMP_FORMAT,
                        on_error="quarantine")
