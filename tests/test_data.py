"""Data model, ingestion, preprocessing, pooling, splits and the generator."""

import csv
import io
import logging
import os
import tempfile
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial import data as dt
from biaxial.rng import substream


def make_episode(pid="p0", d=3, t=10, stay=None, age=50.0, label=0,
                 mask=None, values=None):
    if mask is None:
        mask = np.ones((d, t), dtype=bool)
    if values is None:
        values = np.arange(d * t, dtype=float).reshape(d, t)
    return dt.EpisodeRecord(
        patient_id=pid,
        values=values.astype(float),
        mask=mask,
        statics=np.array([age, 1.0, 170.0, 80.0]),
        stay_hours=float(t if stay is None else stay),
        label=label,
    )


def write_csvs(tmp_path, measurements, statics, labels=None):
    mpath = tmp_path / "measurements.csv"
    spath = tmp_path / "statics.csv"
    mpath.write_text("patient_id,hour,sensor,value\n" + measurements)
    spath.write_text("patient_id,age,female,height_cm,weight_kg,stay_hours\n" + statics)
    lpath = None
    if labels is not None:
        lpath = tmp_path / "labels.csv"
        lpath.write_text("patient_id,mortality\n" + labels)
    return mpath, spath, lpath


def load_csvs(tmp_path, measurements, statics, labels=None):
    """Write the tables into `tmp_path` and read it as a 48-sensor cohort."""
    write_csvs(tmp_path, measurements, statics, labels)
    return dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))


class TestSchema:
    def test_48_sensors_4_statics(self):
        assert len(dt.SENSOR_SCHEMA) == 48
        assert len(set(dt.SENSOR_SCHEMA)) == 48
        assert len(dt.STATIC_SCHEMA) == 4

    def test_names_are_lowercase_underscore(self):
        for name in dt.SENSOR_SCHEMA:
            assert name == name.lower()
            assert " " not in name


class TestLoadDataset:
    def test_two_patients_three_observations_each(self, tmp_path):
        m = ("a,0,heart_rate,80\n"
             "a,2,glucose,120\n"
             "a,5,heart_rate,90\n"
             "b,1,sodium,140\n"
             "b,3,sodium,141\n"
             "b,4,lactate,2.5\n")
        s = "a,60,1,165,70,8\nb,45,0,180,90,6\n"
        ds = load_csvs(tmp_path, m, s, "a,1\nb,0\n")
        assert len(ds) == 2
        a, b = ds.episodes
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        glu = dt.SENSOR_SCHEMA.index("glucose")
        assert a.mask[hr, 0] and a.values[hr, 0] == 80.0
        assert a.mask[glu, 2] and a.values[glu, 2] == 120.0
        assert a.mask.sum() == 3 and b.mask.sum() == 3
        assert a.label == 1 and b.label == 0
        assert a.n_hours == 8 and b.n_hours == 6

    def test_empty_files_give_empty_dataset(self, tmp_path):
        ds = load_csvs(tmp_path, "", "", "")
        assert len(ds) == 0

    @pytest.mark.parametrize("table", ["measurements", "statics", "labels"])
    def test_zero_byte_table_is_parse_error(self, tmp_path, table):
        write_csvs(tmp_path, "", "a,60,1,165,70,8\n", "a,1\n")
        (tmp_path / f"{table}.csv").write_bytes(b"")
        with pytest.raises(dt.ParseError, match=rf"{table}\.csv:1: expected header"):
            dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))

    @pytest.mark.parametrize("table, m, s, l, fields", [
        ("measurements", "a,0,heart_rate,80\n\na,1,heart_rate\n", "a,60,1,165,70,8\n",
         "a,1\n", "expected 4 fields, got 3"),
        ("statics", "", "a,60,1,165,70,8\n\nb,1\n", "a,1\n", "expected 6 fields, got 2"),
        ("labels", "", "a,60,1,165,70,8\n", "a,1\n\nb,0,1\n", "expected 2 fields, got 3"),
    ])
    def test_blank_lines_skipped_and_bad_row_named(self, tmp_path, table, m, s, l, fields):
        with pytest.raises(dt.ParseError, match=rf"{table}\.csv:4: {fields}"):
            load_csvs(tmp_path, m, s, l)

    @pytest.mark.parametrize("block_lines", [dt.BLOCK_LINES, 1])
    @pytest.mark.parametrize("labels, error, message", [
        ("a,1\n", dt.SchemaError, r"labels\.csv: no label for patient 'b'"),
        ("a,1\nb,0\nghost,1\n", dt.SchemaError,
         r"labels\.csv:4: patient 'ghost' missing from statics"),
        ("a,1\nb,0\na,0\n", dt.ParseError, r"labels\.csv:4: duplicate patient_id 'a'"),
    ], ids=["missing", "unknown", "duplicate"])
    def test_labels_name_every_stay_in_statics_once(self, tmp_path, labels, error, message,
                                                    block_lines):
        with mock.patch.object(dt, "BLOCK_LINES", block_lines), \
                pytest.raises(error, match=message):
            load_csvs(tmp_path, "", "a,60,1,165,70,8\nb,45,0,180,90,6\n", labels)

    @pytest.mark.parametrize("block_lines", [dt.BLOCK_LINES, 2])
    def test_a_statics_id_repeated_in_a_later_block_is_named(self, tmp_path, block_lines):
        """In blocks of 2 rows, the header and 'a' are one block and 'b' and
        the second 'a' the next."""
        with mock.patch.object(dt, "BLOCK_LINES", block_lines), \
                pytest.raises(dt.ParseError, match=r"statics\.csv:4: duplicate patient_id 'a'$"):
            load_csvs(tmp_path, "", "a,60,1,165,70,8\nb,45,0,180,90,6\na,60,1,165,70,8\n")

    @pytest.mark.parametrize("table, column", [
        (table, column) for table, header in [("measurements", dt.MEASUREMENTS_HEADER),
                                              ("statics", dt.STATICS_HEADER),
                                              ("labels", dt.LABELS_HEADER)]
        for column in range(len(header))])
    def test_a_nul_byte_in_any_field_is_an_error_naming_its_file(self, tmp_path, table, column):
        """Python 3.10's csv module rejects a NUL, later ones read it into
        the field; either way the cohort does not load. In a statics id it
        is the message 3.10 gives."""
        tables = {"measurements": "a,0,heart_rate,80", "statics": "a,60,1,165,70,8",
                  "labels": "a,1"}
        fields = tables[table].split(",")
        fields[column] = fields[column][:1] + "\0" + fields[column][1:]
        tables[table] = ",".join(fields)
        message = "line contains NUL" if (table, column) == ("statics", 0) else ""
        with pytest.raises(ValueError, match=rf"{table}\.csv:2: {message}"):
            load_csvs(tmp_path, *(tables[t] + "\n" for t in ("measurements", "statics", "labels")))

    def test_single_cell_mapping(self, tmp_path):
        ds = load_csvs(tmp_path, "a,5,heart_rate,80\n", "a,60,1,165,70,8\n")
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        ep = ds.episodes[0]
        assert ep.mask[hr, 5] and ep.values[hr, 5] == 80.0
        assert ep.mask.sum() == 1
        assert ep.label is None

    def test_unknown_sensor_is_schema_error(self, tmp_path):
        with pytest.raises(dt.SchemaError, match="unknown sensor"):
            load_csvs(tmp_path, "a,0,midichlorian_count,9000\n", "a,60,1,165,70,8\n")

    def test_duplicate_cell_last_write_wins_with_warning(self, tmp_path, caplog):
        m = "a,3,heart_rate,80\na,3,heart_rate,85\n"
        with caplog.at_level("WARNING"):
            ds = load_csvs(tmp_path, m, "a,60,1,165,70,8\n")
        hr = dt.SENSOR_SCHEMA.index("heart_rate")
        assert ds.episodes[0].values[hr, 3] == 85.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_non_monotone_timestamp_is_parse_error_with_line(self, tmp_path):
        m = "a,5,heart_rate,80\na,3,heart_rate,85\n"
        with pytest.raises(dt.ParseError, match=r":3:"):
            load_csvs(tmp_path, m, "a,60,1,165,70,8\n")

    def test_negative_hour_rejected(self, tmp_path):
        with pytest.raises(dt.ParseError, match="negative hour"):
            load_csvs(tmp_path, "a,-1,heart_rate,80\n", "a,60,1,165,70,8\n")

    @pytest.mark.parametrize("table, column, hour, stay, got", [
        ("measurements", "hour", 10**12, "8", "1000000000000"),
        ("statics", "stay_hours", 0, "1e12", "1000000000000.0")])
    def test_an_hour_above_max_hour_is_parse_error_with_line(
            self, tmp_path, table, column, hour, stay, got):
        """A stay's grid is as long as its last hour or its stay_hours, so
        one of 10**12 would take 349 TiB. The number is on line 3 of its
        table."""
        m = f"a,0,heart_rate,80\na,{hour},heart_rate,85\n"
        s = f"b,45,0,180,90,6\na,60,1,165,70,{stay}\n"
        with pytest.raises(dt.ParseError, match=rf"{table}\.csv:3: {column} must be "
                                                rf"at most {dt.MAX_HOUR}, got {got}$"):
            load_csvs(tmp_path, m, s)

    def test_hours_up_to_max_hour_load(self, tmp_path):
        ds = load_csvs(tmp_path, f"a,{dt.MAX_HOUR},heart_rate,85\n",
                       f"a,60,1,165,70,{dt.MAX_HOUR}\n")
        assert ds.episodes[0].n_hours == dt.MAX_HOUR + 1

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["value", *dt.STATICS_HEADER[1:]])
    def test_non_finite_number_is_parse_error_with_line(self, tmp_path, column, text):
        """float() reads these; a measurement, static or stay length must be
        finite. The bad number is on line 3 of its table."""
        row = dict(zip(dt.STATICS_HEADER[1:], ["60", "1", "165", "70", "8"]), value="85")
        row[column] = text
        m = f"a,0,heart_rate,80\na,1,heart_rate,{row.pop('value')}\n"
        s = f"b,45,0,180,90,6\na,{','.join(row.values())}\n"
        table = "measurements" if column == "value" else "statics"
        with pytest.raises(dt.ParseError,
                           match=rf"{table}\.csv:3: {column} must be finite, got {text}$"):
            load_csvs(tmp_path, m, s)

    @pytest.mark.parametrize("row", [
        "ghost,-1,midichlorian_count,nan", "ghost,x,heart_rate,y", "ghost,1,heart_rate,y",
        "ghost,-1,heart_rate,nan", "ghost,1,heart_rate,nan", "ghost,8761,heart_rate,nan",
        "ghost,8761,heart_rate,80", "ghost,0,heart_rate,80", "a,1,heart_rate,80"])
    def test_a_row_failing_several_checks_is_named_by_the_first(self, tmp_path, row):
        """Line 3 fails each check from the one named in it on; the error
        is the per-cell loader's, word for word."""
        write_csvs(tmp_path, f"a,2,heart_rate,80\n{row}\n", "a,60,1,165,70,8\n")
        paths = (str(tmp_path / "measurements.csv"), str(tmp_path / "statics.csv"))
        want = _outcome(lambda: _per_cell_load(*paths, dt.SENSOR_SCHEMA))
        assert isinstance(want[0], tuple) and ":3: " in want[0][1]
        assert _outcome(lambda: dt.load_dataset_dir(str(tmp_path), 48).episodes) == want

    @pytest.mark.parametrize("row, message", [
        ("a,x,y,nan,70,8", "could not convert string to float: 'x'"),
        ("a,60,1,nan,x,8", "could not convert string to float: 'x'"),
        ("a,inf,1,nan,70,8", "age must be finite, got inf"),
        ("b,60,1,nan,70,8", "height_cm must be finite, got nan")])
    def test_a_statics_row_names_its_first_bad_field(self, tmp_path, row, message):
        with pytest.raises(dt.ParseError, match=rf"statics\.csv:3: {message}$"):
            load_csvs(tmp_path, "", f"b,60,1,165,70,8\n{row}\n")

    def test_unknown_patient_in_measurements(self, tmp_path):
        with pytest.raises(dt.SchemaError, match="missing from statics"):
            load_csvs(tmp_path, "ghost,0,heart_rate,80\n", "a,60,1,165,70,8\n")

    def test_prevalence_is_computed(self, tmp_path):
        ds = load_csvs(tmp_path, "a,0,heart_rate,80\nb,0,heart_rate,82\n",
                       "a,60,1,165,70,8\nb,50,0,170,75,9\n", "a,1\nb,0\n")
        assert ds.prevalence == 0.5
        assert ds.labels().mean() == ds.prevalence

    def test_missing_directory_or_labels_is_schema_error(self, tmp_path):
        with pytest.raises(dt.SchemaError, match="data directory not found"):
            dt.load_dataset_dir(tmp_path / "none", 4)
        write_csvs(tmp_path, "", "a,60,1,165,70,8\n")
        assert dt.load_dataset_dir(tmp_path, 4).episodes[0].label is None
        with pytest.raises(dt.SchemaError, match="has no labels.csv"):
            dt.load_dataset_dir(tmp_path, 4, labeled=True)

    @pytest.mark.parametrize("n_sensors", [0, 49])
    def test_sensor_count_outside_the_schema_is_schema_error(self, tmp_path, n_sensors):
        write_csvs(tmp_path, "", "a,60,1,165,70,8\n", "a,1\n")
        with pytest.raises(dt.SchemaError) as exc:
            dt.load_dataset_dir(tmp_path, n_sensors)
        assert str(exc.value) == f"{tmp_path}: sensor count must be in [1, 48], got {n_sensors}"

    def test_labeled_cohort_names_every_sensor(self, tmp_path):
        write_csvs(tmp_path, "a,0,albumin,3.1\na,1,albumin,3.2\n", "a,60,1,165,70,8\n",
                   "a,1\n")
        assert len(dt.load_dataset_dir(tmp_path, 1, labeled=True)) == 1
        assert len(dt.load_dataset_dir(tmp_path, 2)) == 1
        with pytest.raises(dt.SchemaError,
                           match="names 1 sensors, but model.sensors_count is 2"):
            dt.load_dataset_dir(tmp_path, 2, labeled=True)


def _read_rows(path, header):
    """The row-by-row reader the block reader replaced, kept as the oracle:
    (the line it starts on, row) for each non-blank row, read by the csv
    module."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(header):
            raise dt.ParseError(f"{path}:1: expected header {','.join(header)}")
        end = rows.line_num
        for row in rows:
            lineno, end = end + 1, rows.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise dt.ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row


def _per_cell_load(measurements_path, statics_path, sensors):
    """The loader as it was before its series dict, kept as the oracle:
    one dict entry per cell, a last hour per (patient, sensor), a maximum
    hour per patient, and a fill loop over the cells. A value that is not
    finite, or an hour above MAX_HOUR, is a ParseError, as in the loader.
    Statics are read without checks and labels are left out."""
    sensor_index = {s: i for i, s in enumerate(sensors)}
    statics = {pid: (np.array([float(x) for x in fields[:4]]), float(fields[4]))
               for _, (pid, *fields) in _read_rows(statics_path, dt.STATICS_HEADER)}
    cells = {pid: {} for pid in statics}
    last_hour = {}
    max_hour = {}
    for lineno, (pid, hour_s, sensor, value_s) in _read_rows(
            measurements_path, dt.MEASUREMENTS_HEADER):
        if sensor not in sensor_index:
            raise dt.SchemaError(f"{measurements_path}:{lineno}: unknown sensor {sensor!r}")
        try:
            hour = int(hour_s)
            value = float(value_s)
        except ValueError as exc:
            raise dt.ParseError(f"{measurements_path}:{lineno}: {exc}") from None
        if hour < 0:
            raise dt.ParseError(f"{measurements_path}:{lineno}: negative hour {hour}")
        if not np.isfinite(value):
            raise dt.ParseError(
                f"{measurements_path}:{lineno}: value must be finite, got {value}")
        if hour > dt.MAX_HOUR:
            raise dt.ParseError(
                f"{measurements_path}:{lineno}: hour must be at most {dt.MAX_HOUR}, got {hour}")
        if pid not in statics:
            raise dt.SchemaError(
                f"{measurements_path}:{lineno}: patient {pid!r} missing from statics")
        d = sensor_index[sensor]
        key = (pid, d)
        prev = last_hour.get(key)
        if prev is not None and hour < prev:
            raise dt.ParseError(
                f"{measurements_path}:{lineno}: non-monotone timestamp for "
                f"({pid}, {sensor}): hour {hour} after hour {prev}")
        if prev is not None and hour == prev:
            dt.logger.warning("%s:%d: duplicate cell (%s, %s, %d); keeping the later value",
                              measurements_path, lineno, pid, sensor, hour)
        last_hour[key] = hour
        cells[pid][(d, hour)] = value
        max_hour[pid] = max(max_hour.get(pid, -1), hour)

    episodes = []
    for pid, (stat_vec, stay) in statics.items():
        t_len = max(int(np.ceil(max(stay, 0.0))), max_hour.get(pid, -1) + 1, 1)
        values = np.zeros((len(sensors), t_len))
        mask = np.zeros((len(sensors), t_len), dtype=bool)
        for (d, hour), value in cells[pid].items():
            values[d, hour] = value
            mask[d, hour] = True
        episodes.append(dt.EpisodeRecord(pid, values, mask, stat_vec, stay))
    return episodes


class _Warnings(logging.Handler):
    """Collects the messages `data` logs while it is installed."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        dt.logger.addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        dt.logger.removeHandler(self)


def _outcome(load):
    """(episodes or the error raised, warnings logged) of one load."""
    with _Warnings() as messages:
        try:
            result = load()
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, messages


# one measurement row: patient, sensor, hours after the series' last row
# (0 repeats its hour: a duplicate cell), value
ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 5),
                          st.floats(allow_nan=False, width=64)), max_size=40)

# how the tables are laid out: blank lines before these rows, CRLF line
# ends, patient ids quoted because they hold ',', '"' or a line end, no line
# end after the last measurement row, and a row with one field too few or
# too many
LAYOUT = st.fixed_dictionaries({
    "blank_at": st.sets(st.integers(0, 40), max_size=3), "crlf": st.booleans(),
    "quoted_ids": st.booleans(), "end_newline": st.booleans(),
    "wrong_at": st.integers(-1, 40)})


def _csv_line(fields, end):
    """A table line as the csv module writes `fields`, ended by `end`."""
    return ",".join('"' + f.replace('"', '""') + '"' if any(c in f for c in ',"\n') else f
                    for f in fields) + end


class TestLoaderOracle:
    @pytest.mark.parametrize("block_lines", [dt.BLOCK_LINES, 3])
    @settings(max_examples=200, deadline=None)
    @given(stays=st.lists(st.sampled_from([0.0, 1.0, 2.5, 6.0, 19.0, 40.0]),
                          min_size=1, max_size=5),
           rows=ROWS, backward_at=st.integers(-1, 40), zero_byte=st.booleans(), layout=LAYOUT)
    def test_matches_the_per_cell_loader(self, block_lines, stays, rows, backward_at,
                                         zero_byte, layout):
        """Interleaved patients, duplicate cells, patients with no rows,
        stays longer than their last row, a measurements table with no rows
        or a zero-byte one (a ParseError: it has no header), at `backward_at`
        a row that goes back in time, and the lines of `layout`, read in
        blocks of the default size and of 3 lines: the arrays are bitwise
        equal, and the warnings and errors word for word."""
        sensors = dt.SENSOR_SCHEMA[:3]
        names = (["p,0", 'p"1', "p\n2", '"p3"', 'p,"4'] if layout["quoted_ids"]
                 else [f"p{p}" for p in range(5)])
        end = "\r\n" if layout["crlf"] else "\n"
        last, lines = {}, []
        for i, (p, d, step, value) in enumerate(rows):
            p %= len(stays)
            hour = last.get((p, d), 0) + step
            if i == backward_at and last.get((p, d), 0) > 0:
                hour = last[p, d] - 1
            last[p, d] = hour
            fields = [names[p], str(hour), sensors[d], repr(value)]
            if i == layout["wrong_at"]:
                fields = fields[:-1] if i % 2 else fields + ["1"]
            lines.append(_csv_line(fields, end))
        statics = [_csv_line([names[p], str(40 + p), "1", "170", "70", repr(stay)], end)
                   for p, stay in enumerate(stays)]
        for i in sorted(layout["blank_at"], reverse=True):
            lines.insert(min(i, len(lines)), end)
            statics.insert(min(i, len(statics)), end)
        text = "".join(lines)
        if text and not layout["end_newline"]:
            text = text[:-len(end)]
        with tempfile.TemporaryDirectory() as tmp:
            mpath = os.path.join(tmp, "measurements.csv")
            spath = os.path.join(tmp, "statics.csv")
            with open(mpath, "w", encoding="utf-8", newline="") as fh:
                if lines or not zero_byte:
                    fh.write(_csv_line(dt.MEASUREMENTS_HEADER, end) + text)
            with open(spath, "w", encoding="utf-8", newline="") as fh:
                fh.write(_csv_line(dt.STATICS_HEADER, end) + "".join(statics))
            want, want_warnings = _outcome(lambda: _per_cell_load(mpath, spath, sensors))
            with mock.patch.object(dt, "BLOCK_LINES", block_lines):
                got, got_warnings = _outcome(
                    lambda: dt.load_dataset_dir(tmp, len(sensors)).episodes)
        assert got_warnings == want_warnings
        if isinstance(want, tuple):
            assert got == want
            return
        assert [ep.patient_id for ep in got] == [ep.patient_id for ep in want]
        for g, w in zip(got, want):
            for field in ("values", "mask", "statics"):
                a, b = getattr(g, field), getattr(w, field)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert (g.stay_hours, g.label) == (w.stay_hours, w.label)


def _measurement_rows(ds):
    """The rows the writer wrote through csv.writer before it formatted a
    stay's lines in one pass, kept as the oracle."""
    for ep in ds.episodes:
        d_idx, t_idx = np.nonzero(ep.mask)
        for d, t, value in zip(d_idx.tolist(), t_idx.tolist(),
                               ep.values[d_idx, t_idx].tolist()):
            yield ep.patient_id, t, dt.SENSOR_SCHEMA[d], f"{value:.4f}"


def _table_rows(ds):
    """Each table's header and the rows the writer wrote through
    csv.writer, kept as the oracle."""
    return {
        "measurements": (dt.MEASUREMENTS_HEADER, _measurement_rows(ds)),
        "statics": (dt.STATICS_HEADER, (
            (ep.patient_id, f"{ep.statics[0]:.1f}", int(ep.statics[1]),
             f"{ep.statics[2]:.1f}", f"{ep.statics[3]:.1f}", int(ep.stay_hours))
            for ep in ds.episodes)),
        "labels": (dt.LABELS_HEADER, ((ep.patient_id, ep.label) for ep in ds.episodes)),
    }


class TestTableIO:
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_a_field_over_the_csv_limit_is_one_parse_error(self, tmp_path, end):
        """The reader rejects a field longer than csv.field_size_limit()
        with the csv module's message, and reads one of exactly that length."""
        limit = csv.field_size_limit()
        for size, error, message in [
                (limit + 1, dt.ParseError, rf"field larger than field limit \({limit}\)$"),
                (limit, dt.SchemaError, r"patient 'xxx.*' missing from statics$")]:
            write_csvs(tmp_path, "", "a,60,1,165,70,8\n")
            (tmp_path / "measurements.csv").write_text(end.join([
                ",".join(dt.MEASUREMENTS_HEADER), "a,0,heart_rate,80",
                f"{'x' * size},1,heart_rate,80", ""]), encoding="utf-8")
            with pytest.raises(error, match=rf"measurements\.csv:3: {message}"):
                dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("bad_line, message", [
        (1, r"statics\.csv:1: 'utf-8' codec can't decode byte 0xe9 in position 0"),
        (2, r"statics\.csv:2: 'utf-8' codec can't decode byte 0xe9 in position 0"),
        (4, r"statics\.csv:3: duplicate patient_id 'a'")])
    def test_text_that_is_not_utf8_is_a_parse_error_at_its_line(
            self, tmp_path, end, bad_line, message):
        """A byte that does not decode is named by its line, unless an
        earlier line fails first."""
        lines = [",".join(dt.STATICS_HEADER), "a,60,1,165,70,8", "a,60,1,165,70,8",
                 "b,60,1,165,70,8", ""]
        data = bytearray(end.join(lines).encode())
        data.insert(data.index({1: b"patient_id", 2: b"a,60", 4: b"b,60"}[bad_line]), 0xE9)
        write_csvs(tmp_path, "", "")
        (tmp_path / "statics.csv").write_bytes(bytes(data))
        with pytest.raises(dt.ParseError, match=message):
            dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))

    @pytest.mark.parametrize("table", ["measurements", "statics", "labels"])
    def test_a_bare_cr_line_end_is_a_parse_error(self, tmp_path, table):
        """Lines end with LF or CRLF; a table whose lines end with a bare CR
        is one line the csv module rejects."""
        write_csvs(tmp_path, "a,0,heart_rate,80\n", "a,60,1,165,70,8\n", "a,1\n")
        path = tmp_path / f"{table}.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        with pytest.raises(dt.ParseError, match=rf"{table}\.csv:1: new-line character seen"):
            dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))

    @pytest.mark.parametrize("block_lines", [dt.BLOCK_LINES, 3])
    def test_a_row_is_named_by_the_line_it_starts_on(self, tmp_path, block_lines):
        """Patient 'a\\nb' is quoted over two lines, so the measurement rows
        start on lines 2, 4 and 6 and the bad value is on line 8; the
        duplicate cell on line 6 is warned of first."""
        write_csvs(tmp_path, "".join(f'"a\nb",{hour},heart_rate,{value}\n' for hour, value in
                                     [(0, "80"), (1, "81"), (1, "82"), (2, "x")]),
                   '"a\nb",60,1,165,70,8\nc,60,1,165,70,inf\n')
        with mock.patch.object(dt, "BLOCK_LINES", block_lines), \
                pytest.raises(dt.ParseError, match=r"statics\.csv:4: stay_hours must be finite"):
            dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))
        (tmp_path / "statics.csv").write_text(
            ",".join(dt.STATICS_HEADER) + '\n"a\nb",60,1,165,70,8\n')
        with _Warnings() as messages, mock.patch.object(dt, "BLOCK_LINES", block_lines), \
                pytest.raises(dt.ParseError, match=r"measurements\.csv:8: could not convert"):
            dt.load_dataset_dir(tmp_path, len(dt.SENSOR_SCHEMA))
        assert messages == [f"{tmp_path / 'measurements.csv'}:6: duplicate cell "
                            "(a\nb, heart_rate, 1); keeping the later value"]

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="\r"), max_size=6),
                        min_size=1, max_size=4, unique=True),
           values=st.lists(st.floats(width=64), min_size=1, max_size=8), seed=st.integers(0, 99))
    def test_writes_the_bytes_of_csv_writer(self, ids, values, seed):
        """Any patient id without a '\\r', quoted or not, and any value,
        -0.0, nan and inf among them: each table holds the bytes csv.writer
        writes."""
        ds = dt.generate_synthetic(10, prevalence=0.2, seed=seed, n_sensors=3)
        ds = dt.Dataset.from_episodes("x", [
            replace(ep, patient_id=pid, values=np.resize(values, ep.values.shape))
            for ep, pid in zip(ds.episodes, ids)])
        with tempfile.TemporaryDirectory() as tmp:
            dt.write_dataset_csvs(ds, tmp)
            for table, (header, rows) in _table_rows(ds).items():
                want = io.StringIO()
                writer = csv.writer(want, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
                with open(os.path.join(tmp, f"{table}.csv"), "rb") as fh:
                    assert fh.read() == want.getvalue().encode("utf-8")

    def test_a_patient_id_holding_a_cr_is_quoted(self, tmp_path):
        """csv.writer before Python 3.13 leaves a '\\r' in a field bare,
        which no reader of LF or CRLF lines reads back; the writer quotes it."""
        ds = dt.generate_synthetic(2, prevalence=0.5, seed=0, n_sensors=1)
        dt.write_dataset_csvs(dt.Dataset.from_episodes(
            "x", [replace(ds.episodes[0], patient_id='a\r"b')]), tmp_path)
        for table in ("measurements", "statics", "labels"):
            assert (tmp_path / f"{table}.csv").read_bytes().split(b"\n")[1].startswith(
                b'"a\r""b",')

    def test_write_table_quotes_a_cr_and_reads_it_back(self, tmp_path):
        """csv.writer before Python 3.13 leaves the '\\r' bare."""
        path = tmp_path / "runs.csv"
        dt.write_table(path, ["name", "n"], [["x\ry", "1"]])
        assert path.read_bytes() == b'name,n\n"x\ry",1\n'
        assert [(lines.tolist(), columns) for lines, columns in dt.read_table(
            path, ("name", "n"))] == [([2], [("x\ry",), ("1",)])]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.text(st.sampled_from(',"\n ') | st.characters(
               blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=4),
               min_size=2, max_size=2), max_size=3))
    def test_write_table_writes_the_bytes_of_csv_writer(self, rows):
        """Any strings without a '\\r', quoted or not."""
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([["a", "b"], *rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            dt.write_table(path, ["a", "b"], rows)
            with open(path, "rb") as fh:
                assert fh.read() == want.getvalue().encode("utf-8")

    @pytest.mark.parametrize("block_lines", [dt.BLOCK_LINES, 3])
    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.text(st.sampled_from(',"\n\r') | st.characters(
               blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
               min_size=1, max_size=4, unique=True), seed=st.integers(0, 99))
    def test_any_patient_id_round_trips(self, block_lines, ids, seed):
        """Any patient id but one holding a NUL (the loader rejects it) or a
        lone surrogate, ',', '"', line ends and non-ASCII text among them,
        loads back as written, with its stay's mask and label."""
        ds = dt.generate_synthetic(10, prevalence=0.2, seed=seed, n_sensors=3)
        ds = dt.Dataset.from_episodes("x", [replace(ep, patient_id=pid)
                                            for ep, pid in zip(ds.episodes, ids)])
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(dt, "BLOCK_LINES", block_lines):
            dt.write_dataset_csvs(ds, tmp)
            back = dt.load_dataset_dir(tmp, 3)
        assert [ep.patient_id for ep in back.episodes] == ids
        for got, want in zip(back.episodes, ds.episodes):
            assert np.array_equal(got.mask, want.mask) and got.label == want.label


class TestExclusions:
    def test_short_stay_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(stay=5, t=5)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_minor_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(age=17.0, t=12)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_negative_stay_excluded(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(stay=-4, t=8)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_mortality_stay_boundary_and_truncation(self):
        short = make_episode(pid="s", t=29, stay=29)
        long = make_episode(pid="l", t=31, stay=31)
        ds = dt.Dataset.from_episodes("x", [short, long])
        out = dt.apply_exclusions(ds, "mortality")
        assert [ep.patient_id for ep in out.episodes] == ["l"]
        assert out.episodes[0].n_hours == 24

    def test_sparse_two_point_episode_excluded(self):
        mask = np.zeros((3, 20), dtype=bool)
        mask[0, 0] = mask[0, 13] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=20, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_gap_over_12h_excluded_even_with_enough_points(self):
        mask = np.zeros((2, 30), dtype=bool)
        for h in (0, 1, 2, 16, 17, 18):
            mask[0, h] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=30, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_leading_gap_over_12h_excluded(self):
        mask = np.zeros((2, 40), dtype=bool)
        for h in (14, 18, 22, 26, 30):
            mask[0, h] = True
        ds = dt.Dataset.from_episodes("x", [make_episode(t=40, mask=mask)])
        assert len(dt.apply_exclusions(ds, "pretrain")) == 0

    def test_pretrain_discards_labels(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(t=12, label=1)])
        out = dt.apply_exclusions(ds, "pretrain")
        assert out.episodes[0].label is None
        assert out.prevalence is None

    def test_mortality_keeps_labels(self):
        ds = dt.Dataset.from_episodes("x", [make_episode(t=36, stay=36, label=1)])
        out = dt.apply_exclusions(ds, "mortality")
        assert out.episodes[0].label == 1

    @pytest.mark.parametrize("task", ["pretrain", "mortality"])
    def test_idempotent(self, task):
        rng = np.random.default_rng(0)
        episodes = []
        for i in range(40):
            t = int(rng.integers(4, 60))
            mask = rng.random((4, t)) < rng.uniform(0.05, 0.9)
            episodes.append(make_episode(
                pid=f"p{i}", d=4, t=t, stay=int(rng.integers(2, 80)),
                age=float(rng.integers(10, 90)), mask=mask,
                values=rng.normal(size=(4, t))))
        ds = dt.Dataset.from_episodes("x", episodes)
        once = dt.apply_exclusions(ds, task)
        twice = dt.apply_exclusions(once, task)
        assert [ep.patient_id for ep in once.episodes] == \
               [ep.patient_id for ep in twice.episodes]
        for a, b in zip(once.episodes, twice.episodes):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.mask, b.mask)
            assert a.label == b.label

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            dt.apply_exclusions(dt.Dataset.from_episodes("x", []), "sepsis")


class TestPreprocessor:
    def test_population_std_convention(self):
        mask = np.zeros((1, 2), dtype=bool)
        mask[0] = [True, True]
        ep = make_episode(d=1, t=2, mask=mask, values=np.array([[2.0, 4.0]]))
        pp = dt.fit_preprocessor([ep])
        assert pp.tv_mean[0] == 3.0
        assert pp.tv_std[0] == 1.0

    def test_never_observed_feature_defaults_with_warning(self, caplog):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0] = True
        ep = make_episode(d=2, t=3, mask=mask, values=np.ones((2, 3)))
        with caplog.at_level("WARNING"):
            pp = dt.fit_preprocessor([ep])
        assert pp.tv_mean[1] == 0.0 and pp.tv_std[1] == 1.0
        assert any("never observed" in rec.message for rec in caplog.records)

    def test_static_mean(self):
        eps = [make_episode(pid="a", age=20.0), make_episode(pid="b", age=40.0)]
        pp = dt.fit_preprocessor(eps)
        assert pp.static_mean[0] == 30.0

    def test_std_floor(self):
        ep = make_episode(d=1, t=3, values=np.full((1, 3), 7.0),
                          mask=np.ones((1, 3), dtype=bool))
        pp = dt.fit_preprocessor([ep])
        assert pp.tv_std[0] == dt.STD_FLOOR

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dt.fit_preprocessor([])


def _forward_fill(values, mask):
    """Per-sensor forward fill of one stay; unfilled leading cells are NaN."""
    d, t = values.shape
    idx = np.where(mask, np.arange(t)[None, :], -1)
    idx = np.maximum.accumulate(idx, axis=1)
    gathered = values[np.arange(d)[:, None], np.clip(idx, 0, None)]
    return np.where(idx >= 0, gathered, np.nan)


def transform(ep, pp):
    """The per-stay transform that `transform_all` replaced, kept as the
    oracle: forward fill, the training mean in leading gaps, standardize."""
    filled = _forward_fill(ep.values, ep.mask)
    lead = np.isnan(filled)
    if lead.any():
        filled[lead] = np.broadcast_to(pp.tv_mean[:, None], filled.shape)[lead]
    standardized = (filled - pp.tv_mean[:, None]) / pp.tv_std[:, None]
    return replace(ep, values=standardized, statics=(ep.statics - pp.static_mean) / pp.static_std)


class TestTransform:
    def test_forward_fill_then_mean_fill(self):
        mask = np.array([[False, True, False, True]])
        values = np.array([[np.nan, 3.0, np.nan, 5.0]])
        ep = make_episode(d=1, t=4, mask=mask, values=np.nan_to_num(values))
        pp = dt.PreprocessorState(
            tv_mean=np.array([4.0]), tv_std=np.array([1.0]),
            static_mean=np.zeros(4), static_std=np.ones(4))
        out = dt.transform_all([ep], pp)[0]
        # pre-standardization [4, 3, 3, 5], standardized by mean 4 / std 1
        np.testing.assert_allclose(out.values[0], [0.0, -1.0, -1.0, 1.0])
        np.testing.assert_array_equal(out.mask, mask)

    def test_fully_observed_row_is_identity_fill(self):
        values = np.array([[1.0, 2.0, 3.0]])
        ep = make_episode(d=1, t=3, mask=np.ones((1, 3), dtype=bool), values=values)
        pp = dt.PreprocessorState(np.array([0.0]), np.array([1.0]),
                                  np.zeros(4), np.ones(4))
        out = dt.transform_all([ep], pp)[0]
        np.testing.assert_array_equal(out.values, values)

    def test_value_at_mean_standardizes_to_zero(self):
        ep = make_episode(d=1, t=1, mask=np.ones((1, 1), dtype=bool),
                          values=np.array([[3.0]]))
        pp = dt.PreprocessorState(np.array([3.0]), np.array([1.0]),
                                  np.zeros(4), np.ones(4))
        assert dt.transform_all([ep], pp)[0].values[0, 0] == 0.0

    def test_statics_standardized(self):
        ep = make_episode(age=60.0)
        pp = dt.PreprocessorState(np.zeros(3), np.ones(3),
                                  np.array([50.0, 0.0, 0.0, 0.0]),
                                  np.array([10.0, 1.0, 1.0, 1.0]))
        assert dt.transform_all([ep], pp)[0].statics[0] == 1.0

    def test_sentinels_never_reach_output(self):
        rng = np.random.default_rng(1)
        sentinel = 1e12
        for _ in range(100):
            d, t = 4, int(rng.integers(3, 15))
            mask = rng.random((d, t)) < 0.5
            values = rng.normal(size=(d, t))
            poisoned = np.where(mask, values, sentinel)
            eps = [make_episode(d=d, t=t, mask=mask, values=poisoned)]
            pp = dt.fit_preprocessor(eps)
            out = dt.transform_all(eps, pp)[0]
            assert np.abs(out.values).max() < 1e6
            # and the clean/poisoned transforms agree exactly
            clean = dt.transform_all([make_episode(d=d, t=t, mask=mask,
                                                    values=np.where(mask, values, 0.0))],
                                      pp)[0]
            assert np.array_equal(out.values, clean.values)

    @settings(max_examples=200, deadline=None)
    @given(stays=st.lists(st.tuples(st.integers(0, 12), st.floats(0.0, 1.0)), max_size=6),
           n_sensors=st.integers(1, 4), never=st.booleans(),
           unobserved=st.sampled_from([0.0, 1e12, np.nan]), nan_rate=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_stay_transform(self, stays, n_sensors, never, unobserved,
                                            nan_rate, seed):
        """Stays of different lengths (0 to 12 hours) and observation rates,
        so leading gaps, with the last sensor never observed when `never`,
        `unobserved` in the cells no mask marks and NaN in a `nan_rate` share
        of those it marks: each stay's values are bitwise the per-stay
        transform's, its statics equal, and its mask is its own array."""
        rng = np.random.default_rng(seed)
        episodes = []
        for i, (t, rate) in enumerate(stays):
            mask = rng.random((n_sensors, t)) < rate
            if never:
                mask[-1] = False
            observed = np.where(rng.random((n_sensors, t)) < nan_rate, np.nan,
                                rng.normal(50.0, 20.0, (n_sensors, t)))
            values = np.where(mask, observed, unobserved)
            episodes.append(make_episode(pid=f"p{i}", d=n_sensors, t=t, mask=mask,
                                         values=values, age=float(rng.uniform(18, 90))))
        pp = dt.PreprocessorState(rng.normal(size=n_sensors), rng.uniform(0.5, 2.0, n_sensors),
                                  rng.normal(size=4), rng.uniform(0.5, 2.0, 4))
        got = dt.transform_all(episodes, pp)
        assert len(got) == len(episodes)
        for g, ep in zip(got, episodes):
            w = transform(ep, pp)
            assert (g.values.dtype, g.values.shape) == (w.values.dtype, w.values.shape)
            assert np.ascontiguousarray(g.values).tobytes() == w.values.tobytes()
            assert g.statics.tobytes() == w.statics.tobytes()
            assert g.mask is ep.mask
            assert (g.patient_id, g.stay_hours, g.label) == (ep.patient_id, ep.stay_hours,
                                                             ep.label)


class TestPooling:
    def test_cardinality(self):
        a = dt.Dataset.from_episodes("A", [make_episode(pid=f"x{i}") for i in range(100)])
        b = dt.Dataset.from_episodes("B", [make_episode(pid=f"y{i}") for i in range(50)])
        pooled = dt.pool_datasets([a, b])
        assert len(pooled) == 150
        assert pooled.name == "A+B"

    def test_overlapping_raw_ids_become_distinct(self):
        a = dt.Dataset.from_episodes("A", [make_episode(pid="same")])
        b = dt.Dataset.from_episodes("B", [make_episode(pid="same")])
        pooled = dt.pool_datasets([a, b])
        assert sorted(ep.patient_id for ep in pooled.episodes) == ["A/same", "B/same"]

    def test_same_named_sources_sharing_an_id_are_error(self):
        # as `--data x/cohort --data y/cohort` gives: both sources are "cohort"
        a = dt.Dataset.from_episodes("cohort", [make_episode(pid="same")])
        b = dt.Dataset.from_episodes("cohort", [make_episode(pid="same")])
        with pytest.raises(ValueError, match="duplicate patient id 'cohort/same'"):
            dt.pool_datasets([a, b])

    def test_schema_mismatch_rejected(self):
        a = dt.Dataset.from_episodes("A", [make_episode(d=3)])
        b = dt.Dataset.from_episodes("B", [make_episode(d=4)])
        with pytest.raises(dt.SchemaError, match="schema mismatch: A has stays of 3 sensors, "
                                                 "B has stays of 4 sensors"):
            dt.pool_datasets([a, b])

    def test_stays_of_mixed_sensor_counts_are_rejected_whoever_built_them(self):
        """The sensor count is read off the stays, so a dataset built from
        4-sensor stays pools only with other 4-sensor stays, and one
        holding both counts is rejected on its own."""
        four = [make_episode(pid=f"f{i}", d=4) for i in range(40)]
        six = [make_episode(pid=f"s{i}", d=6) for i in range(40)]
        with pytest.raises(dt.SchemaError, match="A has stays of 4 sensors, "
                                                 "B has stays of 6 sensors"):
            dt.pool_datasets([dt.Dataset.from_episodes("A", four),
                              dt.Dataset.from_episodes("B", six)])
        with pytest.raises(dt.SchemaError, match="schema mismatch"):
            dt.pool_datasets([dt.Dataset.from_episodes("mixed", four + six)])
        assert len(dt.pool_datasets([dt.Dataset.from_episodes("A", four),
                                     dt.Dataset.from_episodes("B", four)])) == 80

    def test_contents_preserved_bit_exactly(self):
        rng = np.random.default_rng(2)
        eps = [make_episode(pid=f"p{i}", values=rng.normal(size=(3, 10)))
               for i in range(5)]
        a = dt.Dataset.from_episodes("A", eps)
        pooled = dt.pool_datasets([a])
        for orig, got in zip(eps, pooled.episodes):
            assert np.array_equal(orig.values, got.values)
            assert np.array_equal(orig.mask, got.mask)
            assert np.array_equal(orig.statics, got.statics)

    def test_pooled_prevalence_scaled_reference_mix(self):
        # 5.5% of 2000 plus 7.3% of 730 pools to ~6.0% over 2730
        a_eps = [make_episode(pid=f"a{i}", d=1, t=4, label=int(i < 110))
                 for i in range(2000)]
        b_eps = [make_episode(pid=f"b{i}", d=1, t=4, label=int(i < 53))
                 for i in range(730)]
        pooled = dt.pool_datasets([
            dt.Dataset.from_episodes("eicu_like", a_eps),
            dt.Dataset.from_episodes("m4_like", b_eps)])
        assert pooled.prevalence == pytest.approx(0.060, abs=0.001)


class TestSharing:
    """Stays are frozen, so every dataset that holds one shares its arrays."""

    @staticmethod
    def _shares(a, b):
        return all(np.shares_memory(getattr(a, f), getattr(b, f))
                   for f in ("values", "mask", "statics"))

    def test_pooling_shares_the_source_arrays(self):
        eps = [make_episode(pid=f"p{i}") for i in range(3)]
        pooled = dt.pool_datasets([dt.Dataset.from_episodes("A", eps)])
        assert all(self._shares(a, b) for a, b in zip(eps, pooled.episodes))

    def test_subsample_shares_the_source_arrays(self):
        eps = [make_episode(pid=f"p{i}", label=int(i < 3)) for i in range(10)]
        sub = dt.subsample_preserving_prevalence(dt.Dataset.from_episodes("A", eps), 5, 0)
        by_id = {ep.patient_id: ep for ep in eps}
        assert all(self._shares(by_id[ep.patient_id], ep) for ep in sub.episodes)

    def test_pretrain_exclusions_share_the_source_arrays(self):
        ep = make_episode(t=40, label=1)
        (kept,) = dt.apply_exclusions(dt.Dataset.from_episodes("A", [ep]), "pretrain").episodes
        assert self._shares(ep, kept) and kept.label is None and ep.label == 1

    def test_mortality_cut_gets_its_own_arrays(self):
        ep = make_episode(t=40, label=1)
        (kept,) = dt.apply_exclusions(dt.Dataset.from_episodes("A", [ep]), "mortality").episodes
        assert kept.n_hours == dt.MORTALITY_INPUT_HOURS
        assert not np.shares_memory(kept.values, ep.values)
        assert not np.shares_memory(kept.mask, ep.mask)

    def test_transform_shares_the_mask(self):
        ep = make_episode()
        (out,) = dt.transform_all([ep], dt.fit_preprocessor([ep]))
        assert np.shares_memory(out.mask, ep.mask)

    def test_a_stay_cannot_be_relabeled_in_place(self):
        ep = make_episode(label=0)
        with pytest.raises(FrozenInstanceError):
            ep.label = 1
        assert replace(ep, label=1).label == 1 and ep.label == 0


class TestSubsample:
    def _labeled_dataset(self, n=2000, prevalence=0.119):
        n_pos = int(round(n * prevalence))
        eps = [make_episode(pid=f"p{i}", d=1, t=4, label=int(i < n_pos))
               for i in range(n)]
        return dt.Dataset.from_episodes("x", eps)

    def test_reference_positive_count(self):
        ds = self._labeled_dataset()
        out = dt.subsample_preserving_prevalence(ds, 1000, seed=0)
        assert len(out) == 1000
        assert int((out.labels() == 1).sum()) == 119

    def test_full_size_is_permutation(self):
        ds = self._labeled_dataset(n=50, prevalence=0.2)
        out = dt.subsample_preserving_prevalence(ds, 50, seed=1)
        assert sorted(ep.patient_id for ep in out.episodes) == \
               sorted(ep.patient_id for ep in ds.episodes)

    def test_deterministic_per_seed(self):
        ds = self._labeled_dataset(n=300)
        ids1 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=7).episodes]
        ids2 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=7).episodes]
        ids3 = [ep.patient_id for ep in
                dt.subsample_preserving_prevalence(ds, 100, seed=8).episodes]
        assert ids1 == ids2
        assert set(ids1) != set(ids3)

    def test_minimum_one_positive(self):
        ds = self._labeled_dataset(n=1000, prevalence=0.01)
        out = dt.subsample_preserving_prevalence(ds, 20, seed=0)
        assert int((out.labels() == 1).sum()) == 1

    def test_minimum_one_negative(self):
        # 154 stays after exclusions, 143 positive: round(5 * 0.93) = 5 leaves
        # no negative without the floor
        ds = dt.apply_exclusions(
            dt.generate_synthetic(200, prevalence=0.9, seed=1, n_sensors=4), "mortality")
        for seed in range(4):
            out = dt.subsample_preserving_prevalence(ds, 5, seed=seed)
            assert len(out) == 5 and int((out.labels() == 0).sum()) >= 1, seed

    def test_no_negatives_is_an_exhausted_class(self):
        all_pos = dt.Dataset.from_episodes(
            "y", [make_episode(pid=f"p{i}", d=1, t=4, label=1) for i in range(10)])
        with pytest.raises(dt.SubsampleError, match="negative class exhausted"):
            dt.subsample_preserving_prevalence(all_pos, 5, seed=0)

    def test_size_too_small_rejected(self):
        with pytest.raises(dt.SubsampleError, match=">= 2"):
            dt.subsample_preserving_prevalence(self._labeled_dataset(n=50), 1, seed=0)

    def test_exhausted_class_names_it(self):
        # all-negative dataset: the minimum-one-positive rule needs 1, has 0
        all_neg = dt.Dataset.from_episodes(
            "y", [make_episode(pid=f"n{i}", d=1, t=4, label=0) for i in range(10)])
        with pytest.raises(dt.SubsampleError, match="positive class exhausted"):
            dt.subsample_preserving_prevalence(all_neg, 5, seed=0)

    def test_size_above_dataset_rejected(self):
        with pytest.raises(dt.SubsampleError, match="exceeds dataset size"):
            dt.subsample_preserving_prevalence(self._labeled_dataset(n=50), 51, seed=0)


def _ids(episodes):
    return [ep.patient_id for ep in episodes]


def _reference_rotation(ds, seed, n_folds):
    """The id-based splits that `folds` replaced: the test cut and the
    round-robin folds as patient-id lists, each fold's ids then selected
    from the cohort in its order. Returns (test ids, [(train, val)])."""
    labels = ds.labels()
    test, pool, _ = dt._stratified_cut(labels, dt.TEST_FRAC, substream(seed, "splits"), 2)
    ids = np.array(_ids(ds.episodes))
    fold_ids = [ids[pool[k::n_folds]].tolist() for k in range(n_folds)]

    def select(wanted):
        wanted = set(wanted)
        return [ep for ep in ds.episodes if ep.patient_id in wanted]

    return ids[test].tolist(), [
        (select(pid for j in range(n_folds) if j != k for pid in fold_ids[j]),
         select(fold_ids[k])) for k in range(n_folds)]


class TestSplits:
    def _ds(self, n=100, prevalence=0.2):
        n_pos = int(round(n * prevalence))
        eps = [make_episode(pid=f"p{i}", d=1, t=4, label=int(i < n_pos))
               for i in range(n)]
        return dt.Dataset.from_episodes("x", eps)

    def test_sizes_on_100_episodes(self):
        ds = self._ds(100)
        _, test = dt.split_test(ds, seed=0)
        assert len(test) == 20
        for train, val in dt.folds(ds, seed=0):
            assert len(val) == 16
            assert len(train) == 64

    def test_validation_folds_partition_the_pool(self):
        ds = self._ds(100)
        folds = dt.folds(ds, seed=1)
        pool = set(_ids(folds[0][0])) | set(_ids(folds[0][1]))
        union = set()
        for _, val in folds:
            vs = set(_ids(val))
            assert not (vs & union)
            union |= vs
        assert union == pool
        pool_ds, test = dt.split_test(ds, seed=1)
        assert pool == set(_ids(pool_ds.episodes))
        assert not (set(_ids(test)) & pool)

    def test_no_id_in_both_test_and_training_folds(self):
        ds = self._ds(100)
        test = set(_ids(dt.split_test(ds, seed=2)[1]))
        for train, val in dt.folds(ds, seed=2):
            assert not (test & set(_ids(train)))
            assert not (test & set(_ids(val)))

    def test_deterministic(self):
        ds = self._ds(80)
        t1, t2 = dt.split_test(ds, seed=5)[1], dt.split_test(ds, seed=5)[1]
        f1, f2 = dt.folds(ds, seed=5), dt.folds(ds, seed=5)
        assert _ids(t1) == _ids(t2)
        assert [(_ids(a), _ids(b)) for a, b in f1] == [(_ids(a), _ids(b)) for a, b in f2]

    def test_stratification_within_two_points_at_500(self):
        ds = self._ds(500, prevalence=0.12)

        def prev(episodes):
            return float(np.mean([ep.label for ep in episodes]))

        assert abs(prev(dt.split_test(ds, seed=3)[1]) - 0.12) <= 0.02
        for train, val in dt.folds(ds, seed=3):
            assert abs(prev(train) - 0.12) <= 0.02
            assert abs(prev(val) - 0.02 - 0.1) <= 0.04  # loose sanity on val too

    def test_too_few_positives_falls_back_with_warning(self, caplog):
        ds = self._ds(60, prevalence=1 / 60)  # 1 positive: test or pool, not both
        with caplog.at_level("WARNING"):
            _, test = dt.split_test(ds, seed=4)
        assert any("unstratified" in rec.message for rec in caplog.records)
        assert len(test) == 12

    def test_three_positives_stratify_the_test_cut(self, caplog):
        ds = self._ds(60, prevalence=0.05)  # 3 positives, fewer than the 5 folds
        positives = {ep.patient_id for ep in ds.episodes if ep.label == 1}
        for seed in range(4):
            with caplog.at_level("WARNING"):
                _, test = dt.split_test(ds, seed=seed)
                dt.folds(ds, seed=seed)
            assert len(positives & set(_ids(test))) == 1
            assert len(test) == 12                          # 1 of 3 + 11 of 57
        assert not any("unstratified" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("split", [dt.split_test, dt.folds])
    def test_tiny_dataset_rejected(self, split):
        with pytest.raises(ValueError, match="at least 10"):
            split(self._ds(8), seed=0)

    def test_cut_permutes_positives_then_negatives(self):
        y = np.array([1, 0] * 10 + [0] * 20)
        cut, rest, stratified = dt._stratified_cut(y, 0.25, np.random.default_rng(5), 2)
        rng = np.random.default_rng(5)
        pos = np.nonzero(y == 1)[0][rng.permutation(10)]
        neg = np.nonzero(y == 0)[0][rng.permutation(30)]
        assert stratified
        # round half to even: 2.5 -> 2 positives, 7.5 -> 8 negatives
        assert cut.tolist() == [*pos[:2], *neg[:8]]
        assert rest.tolist() == [*pos[2:], *neg[8:]]

    def test_splits_return_episodes_in_cohort_order(self):
        ds = self._ds(100)
        pool, test = dt.split_test(ds, seed=3)
        assert set(_ids(test)) == set(_reference_rotation(ds, 3, 5)[0])
        assert (pool.name, len(pool) + len(test)) == (ds.name, 100)
        position = {ep.patient_id: i for i, ep in enumerate(ds.episodes)}
        parts = [pool.episodes, test, *(part for fold in dt.folds(ds, seed=3) for part in fold)]
        for part in parts:
            idx = [position[ep.patient_id] for ep in part]
            assert idx == sorted(idx)


# labels as stored on episodes: None is a stay without a label
LABELS = st.lists(st.sampled_from([0, 1, None]), max_size=60)
FRACS = st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**32 - 1)
COHORT_LABELS = st.lists(st.sampled_from([0, 1, None]), min_size=10, max_size=80)


def _labeled(labels):
    return dt.Dataset.from_episodes("x", [make_episode(pid=f"p{i}", d=1, t=2, label=lab)
                                          for i, lab in enumerate(labels)])


class TestStratifiedCutProperties:
    @settings(max_examples=200, deadline=None)
    @given(labels=LABELS, frac=FRACS, min_class=st.integers(1, 12), seed=SEEDS)
    def test_cut_and_rest_cover_every_index_once(self, labels, frac, min_class, seed):
        y = np.array([-1 if lab is None else lab for lab in labels], dtype=int)
        cut, rest, stratified = dt._stratified_cut(
            y, frac, np.random.default_rng(seed), min_class)
        assert sorted(np.concatenate([cut, rest]).tolist()) == list(range(len(y)))
        if None in labels:
            assert not stratified

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.sampled_from([0, 1]), max_size=60), frac=FRACS,
           min_class=st.integers(1, 12), seed=SEEDS)
    def test_stratified_cut_takes_each_class_share(self, labels, frac, min_class, seed):
        y = np.array(labels, dtype=int)
        cut, _, stratified = dt._stratified_cut(
            y, frac, np.random.default_rng(seed), min_class)
        sizes = {c: int((y == c).sum()) for c in (0, 1)}
        assert stratified == (min(sizes.values()) >= min_class)
        if stratified:
            for c, n in sizes.items():
                assert int((y[cut] == c).sum()) == max(1, round(frac * n))
        else:
            assert len(cut) == min(len(y), max(1, round(frac * len(y))))

    @settings(max_examples=100, deadline=None)
    @given(labels=LABELS, frac=FRACS, seed=SEEDS)
    def test_stratified_split_keeps_every_stay_once(self, labels, frac, seed):
        ds = _labeled(labels)
        train, val = dt.stratified_split(ds, frac, np.random.default_rng(seed))
        assert sorted(map(id, train + val)) == sorted(map(id, ds.episodes))

    @pytest.mark.parametrize("lone", [0, 1])
    def test_lone_member_of_a_class_always_trains(self, lone):
        ds = _labeled([1 - lone] * 9 + [lone])
        for seed in range(200):
            train, val = dt.stratified_split(ds, dt.VAL_FRAC, substream(seed, "holdout"))
            assert [ep.label for ep in train].count(lone) == 1
            assert [ep.label for ep in val] == [1 - lone] * 2

    @settings(max_examples=100, deadline=None)
    @given(labels=LABELS, frac=FRACS, seed=SEEDS)
    def test_same_seed_same_split(self, labels, frac, seed):
        ds = _labeled(labels)
        first = dt.stratified_split(ds, frac, np.random.default_rng(seed))
        again = dt.stratified_split(ds, frac, np.random.default_rng(seed))
        assert [[ep.patient_id for ep in part] for part in first] == \
            [[ep.patient_id for ep in part] for part in again]

    @settings(max_examples=100, deadline=None)
    @given(labels=COHORT_LABELS, n_folds=st.integers(2, 6), seed=st.integers(0, 10_000))
    def test_splits_partition_the_ids(self, labels, n_folds, seed):
        ds = _labeled(labels)
        ids = sorted(_ids(ds.episodes))
        test = _ids(dt.split_test(ds, seed)[1])
        folds = [(_ids(train), _ids(val)) for train, val in dt.folds(ds, seed, n_folds)]
        assert sorted(test + [pid for _, val in folds for pid in val]) == ids
        for train, val in folds:
            assert sorted(test + train + val) == ids

    @settings(max_examples=100, deadline=None)
    @given(labels=COHORT_LABELS, n_folds=st.integers(2, 6), seed=SEEDS)
    def test_folds_match_the_id_based_rotation(self, labels, n_folds, seed):
        ds = _labeled(labels)
        test_ids, want = _reference_rotation(ds, seed, n_folds)
        got = dt.folds(ds, seed, n_folds)
        assert [(_ids(a), _ids(b)) for a, b in got] == [(_ids(a), _ids(b)) for a, b in want]
        assert sorted(_ids(dt.split_test(ds, seed)[1])) == sorted(test_ids)

    @settings(max_examples=100, deadline=None)
    @given(labels=COHORT_LABELS, n_folds=st.integers(2, 6), seed=SEEDS)
    def test_no_fold_holds_a_test_stay(self, labels, n_folds, seed):
        ds = _labeled(labels)
        test = set(map(id, dt.split_test(ds, seed)[1]))
        for train, val in dt.folds(ds, seed, n_folds):
            assert not test & set(map(id, train + val))


class TestGenerator:
    def test_prevalence_calibrated(self):
        ds = dt.generate_synthetic(1000, prevalence=0.12, seed=0, n_sensors=8)
        measured = ds.labels().mean()
        assert 0.11 <= measured <= 0.13
        assert ds.prevalence == measured

    def test_zero_sparsity_observes_everything(self):
        ds = dt.generate_synthetic(20, prevalence=0.2, sparsity=0.0, seed=1,
                                   n_sensors=6)
        for ep in ds.episodes:
            assert ep.mask.all()

    def test_bit_identical_per_seed(self):
        a = dt.generate_synthetic(30, prevalence=0.2, seed=9, n_sensors=5)
        b = dt.generate_synthetic(30, prevalence=0.2, seed=9, n_sensors=5)
        for ea, eb in zip(a.episodes, b.episodes):
            assert ea.patient_id == eb.patient_id
            assert np.array_equal(ea.values, eb.values)
            assert np.array_equal(ea.mask, eb.mask)
            assert np.array_equal(ea.statics, eb.statics)
            assert ea.label == eb.label

    def test_different_seeds_differ(self):
        a = dt.generate_synthetic(10, prevalence=0.2, seed=1, n_sensors=4)
        b = dt.generate_synthetic(10, prevalence=0.2, seed=2, n_sensors=4)
        assert not np.array_equal(a.episodes[0].values, b.episodes[0].values)

    def test_adult_age_range_and_schema(self):
        ds = dt.generate_synthetic(50, prevalence=0.2, seed=3, n_sensors=12)
        for ep in ds.episodes:
            assert ep.n_sensors == 12
            assert 18.0 <= ep.statics[0] <= 95.0
            assert ep.statics[1] in (0.0, 1.0)
            assert ep.stay_hours >= 31

    def test_unachievable_prevalence_is_error(self):
        with pytest.raises(ValueError, match=r"cannot calibrate prevalence 0.119 with n=10 "
                                             r"\(closest achievable 0.1000\)"):
            dt.generate_synthetic(10, prevalence=0.119, seed=0, n_sensors=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="prevalence"):
            dt.generate_synthetic(10, prevalence=0.0, seed=0)
        with pytest.raises(ValueError, match="sparsity"):
            dt.generate_synthetic(10, prevalence=0.5, sparsity=1.0, seed=0)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                dt.generate_synthetic(n, prevalence=0.5, seed=0)
        with pytest.raises(dt.SchemaError, match=r"sensor count must be in \[1, 48\], got 49"):
            dt.generate_synthetic(10, prevalence=0.5, seed=0, n_sensors=49)
        for hours in (0.0, -1.0, float("nan"), 30, 337):
            with pytest.raises(ValueError, match=rf"mean_stay_hours must be in \[31, 336\], "
                                                 rf"the range .*, got {hours}$"):
                dt.generate_synthetic(10, prevalence=0.5, mean_stay_hours=hours, seed=0)
        for hours in dt.SYNTHETIC_STAY_HOURS:   # the bounds are in range
            assert dt.DataConfig(mean_stay_hours=hours).mean_stay_hours == hours

    @pytest.mark.parametrize("bad", [{"n": 0}, {"prevalence": 1.0}, {"sparsity": 1.0},
                                     {"mean_stay_hours": 0.0}, {"n": 7}],
                             ids=["n=0", "prevalence=1", "sparsity=1", "mean_stay_hours=0",
                                  "n=7"])
    def test_generator_and_data_section_reject_alike(self, bad):
        """generate_synthetic checks its arguments by building the [data]
        section, so both raise one message for a bad value."""
        args = {"n": 100, "prevalence": 0.119, "mean_stay_hours": 48.0, "sparsity": 0.5, **bad}
        with pytest.raises(ValueError) as section:
            dt.DataConfig(**args)
        with pytest.raises(ValueError) as generator:
            dt.generate_synthetic(**args, seed=0, n_sensors=4)
        assert str(generator.value) == str(section.value)

    def test_csv_round_trip(self, tmp_path):
        ds = dt.generate_synthetic(15, prevalence=0.2, seed=4, n_sensors=6,
                                   sparsity=0.4)
        dt.write_dataset_csvs(ds, tmp_path)
        back = dt.load_dataset_dir(tmp_path, 6)
        assert len(back) == len(ds)
        for orig, got in zip(ds.episodes, back.episodes):
            assert got.patient_id == orig.patient_id
            assert np.array_equal(got.mask, orig.mask)
            observed = orig.mask
            np.testing.assert_allclose(got.values[observed], orig.values[observed],
                                       atol=5e-5)
            np.testing.assert_allclose(got.statics, orig.statics, atol=0.05)
            assert got.label == orig.label

    def test_partly_labeled_dataset_is_not_written(self, tmp_path):
        ds = dt.generate_synthetic(10, prevalence=0.2, seed=5, n_sensors=4)
        ds.episodes[3] = replace(ds.episodes[3], label=None)
        with pytest.raises(dt.SchemaError, match="1 of 10 stays have no label"):
            dt.write_dataset_csvs(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unlabeled_dataset_round_trips_without_labels_file(self, tmp_path):
        ds = dt.apply_exclusions(
            dt.generate_synthetic(10, prevalence=0.2, seed=5, n_sensors=4), "pretrain")
        dt.write_dataset_csvs(ds, tmp_path)
        assert not (tmp_path / "labels.csv").exists()
        back = dt.load_dataset_dir(tmp_path, 4)
        assert len(back) == len(ds) and all(ep.label is None for ep in back.episodes)

    def test_rerun_writes_identical_bytes(self, tmp_path):
        ds = dt.generate_synthetic(10, prevalence=0.2, seed=5, n_sensors=4)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        dt.write_dataset_csvs(ds, d1)
        dt.write_dataset_csvs(dt.generate_synthetic(10, prevalence=0.2, seed=5,
                                                    n_sensors=4), d2)
        for fn in ("measurements.csv", "statics.csv", "labels.csv"):
            assert (d1 / fn).read_bytes() == (d2 / fn).read_bytes()

    def test_sparsity_orders_observation_density(self):
        dense = dt.generate_synthetic(40, prevalence=0.2, sparsity=0.2, seed=6,
                                      n_sensors=10)
        sparse = dt.generate_synthetic(40, prevalence=0.2, sparsity=0.7, seed=6,
                                       n_sensors=10)
        rate = lambda ds: np.mean([ep.mask.mean() for ep in ds.episodes])
        assert rate(dense) > rate(sparse)

    def test_exclusions_keep_most_generated_episodes(self):
        ds = dt.generate_synthetic(200, prevalence=0.12, sparsity=0.6, seed=7,
                                   n_sensors=12)
        kept = dt.apply_exclusions(ds, "mortality")
        assert len(kept) >= 190
