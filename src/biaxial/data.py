"""Clinical time-series data model, file ingestion, preprocessing and synthesis.

An episode is one ICU stay resampled to a 1-hour grid: a values grid of
shape D x T, a boolean observation mask of the same shape, static
demographics and an optional mortality label. The canonical schema has
48 time-varying sensors and 4 statics; smaller experiments use a prefix
of the sensor list.

On disk a dataset is a directory of three UTF-8 CSV tables ('.' decimals,
no thousands separators), measurements.csv, statics.csv and labels.csv,
each led by its header (MEASUREMENTS_HEADER, STATICS_HEADER, LABELS_HEADER);
a field may be quoted, a line may end with LF or CRLF, and a NUL byte is
an error. `load_dataset_dir` is its one reader and makes every check of
it: row by row in statics.csv and labels.csv, a row per stay, and in
column passes in measurements.csv, a row per measurement.

`read_table` splits any table with one csv.reader, BLOCK_LINES rows at a
time, never holding the whole file as strings; every field written, of a
cohort or a result table, is quoted by `_csv_field`'s one rule.

Sensor names are lowercase with underscores for spaces; parenthesised
qualifiers and unit symbols are folded in (e.g. "bilirubin_direct",
"co2_partial_pressure").

Every split of a cohort is made here, stratified by class alike:
`split_test` holds out TEST_FRAC (0.2) of a cohort as its fixed test
split, `folds` rotates validation folds over the rest, and
`stratified_split` holds out VAL_FRAC (0.2) of a training set. Splits
pick stays by their index in the cohort and keep its order.

Stays are frozen, and no code writes their arrays, so every Dataset that
holds a stay shares them; a changed field makes a new record (`replace`).
Only a stay cut to its first 24 hours gets new arrays. The stays of one
`transform_all` call share one block of standardized values, each holding
a view of its own hours.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from biaxial.rng import substream

logger = logging.getLogger(__name__)

# 48 time-varying sensors, fixed order.
SENSOR_SCHEMA = (
    "albumin",
    "alkaline_phosphatase",
    "alanine_aminotransferase",
    "aspartate_aminotransferase",
    "band_form_neutrophils",
    "base_excess",
    "bicarbonate",
    "bilirubin_direct",
    "bilirubin_total",
    "blood_pressure_diastolic",
    "blood_pressure_systolic",
    "blood_urea_nitrogen",
    "calcium",
    "calcium_ionized",
    "chloride",
    "co2_partial_pressure",
    "c_reactive_protein",
    "creatinine",
    "creatine_kinase",
    "creatine_kinase_mb",
    "fibrinogen",
    "fraction_of_inspired_oxygen",
    "glucose",
    "haemoglobin",
    "heart_rate",
    "international_normalised_ratio",
    "lactate",
    "lymphocytes",
    "magnesium",
    "mean_arterial_pressure",
    "mean_cell_haemoglobin",
    "mean_corpuscular_haemoglobin_concentration",
    "mean_corpuscular_volume",
    "methaemoglobin",
    "neutrophils",
    "o2_partial_pressure",
    "oxygen_saturation",
    "partial_thromboplastin_time",
    "ph_of_blood",
    "phosphate",
    "platelets",
    "potassium",
    "respiratory_rate",
    "sodium",
    "temperature",
    "troponin_t",
    "urine_output",
    "white_blood_cells",
)

STATIC_SCHEMA = ("age", "female", "height_cm", "weight_kg")

MEASUREMENTS_HEADER = ("patient_id", "hour", "sensor", "value")
STATICS_HEADER = ("patient_id", *STATIC_SCHEMA, "stay_hours")
LABELS_HEADER = ("patient_id", "mortality")

VITAL_SENSORS = frozenset({
    "heart_rate",
    "blood_pressure_systolic",
    "blood_pressure_diastolic",
    "mean_arterial_pressure",
    "respiratory_rate",
    "oxygen_saturation",
    "temperature",
})

MORTALITY_INPUT_HOURS = 24
MIN_STAY_HOURS = 6
MORTALITY_MIN_STAY_HOURS = 30
MIN_VALID_POINTS = 4
MAX_GAP_HOURS = 12
MIN_AGE_YEARS = 18
MAX_HOUR = 365 * 24  # the latest measurement hour and longest stay_hours a cohort may hold

STD_FLOOR = 1e-6

TEST_FRAC = 0.2   # of a cohort, held out as its test split
VAL_FRAC = 0.2    # of a training set, held out for validation

# lines of a table split and checked at once: reading a table holds one
# block of it as strings, never the whole file
BLOCK_LINES = 1024


class SchemaError(ValueError):
    """A file or dataset disagrees with the feature schema."""


class ParseError(ValueError):
    """A data file is malformed; the message names the offending line."""


class SubsampleError(ValueError):
    """A subsample of the requested size cannot be drawn from a dataset."""


@dataclass(frozen=True)
class EpisodeRecord:
    """One ICU stay on an hourly grid; frozen, its arrays shared, never written."""
    patient_id: str
    values: np.ndarray          # (D, T) float64
    mask: np.ndarray            # (D, T) bool, true = observed
    statics: np.ndarray         # (S,) float64: age, female, height_cm, weight_kg
    stay_hours: float
    label: int | None = None

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]


@dataclass
class Dataset:
    """A named collection of episodes; a stay of D sensors measures the
    schema's first D, SENSOR_SCHEMA[:D]."""
    name: str
    episodes: list

    @classmethod
    def from_episodes(cls, name: str, episodes: list) -> "Dataset":
        return cls(name=name, episodes=list(episodes))

    @property
    def prevalence(self) -> float | None:
        labeled = [ep.label for ep in self.episodes if ep.label is not None]
        return float(np.mean(labeled)) if labeled else None

    def __len__(self) -> int:
        return len(self.episodes)

    def labels(self) -> np.ndarray:
        return np.array([-1 if ep.label is None else ep.label for ep in self.episodes])


@dataclass
class PreprocessorState:
    """Per-feature standardization statistics fitted on a training split."""
    tv_mean: np.ndarray
    tv_std: np.ndarray
    static_mean: np.ndarray
    static_std: np.ndarray
    fitted_on: str = ""


# ---------------------------------------------------------------------------
# file ingestion


def read_table(path, header):
    """Yield the non-blank rows of a UTF-8 CSV table in blocks of at most
    BLOCK_LINES rows, each as (line numbers, columns): the line each row
    starts on, an int array, and one sequence of strings per header column.

    One csv.reader splits the file's lines, each decoded as it is read, so
    a field may be quoted and span lines, and a line may end with LF or
    CRLF; a bare CR is text the csv module rejects. The first row must be
    `header` (a file with no lines fails on line 1) and every row must have
    one field per header column; anything else, text that is not UTF-8, and
    text the csv module rejects raise ParseError("path:line: ...") once the
    rows before that line are yielded.
    """
    w = len(header)
    with open(path, "rb") as fh:
        reader = csv.reader(map(bytes.decode, fh))
        numbered = ((reader.line_num, row) for row in reader)  # (the line it ends on, row)
        end = 0  # the line the rows read so far end on
        while True:
            rows, error = [], None
            try:
                rows.extend(islice(numbered, BLOCK_LINES))
            except UnicodeDecodeError as exc:  # in the line after the last one read
                error = ParseError(f"{path}:{reader.line_num + 1}: {exc}")
            except csv.Error as exc:  # in the row after the last one read
                error = ParseError(f"{path}:{(rows[-1][0] if rows else end) + 1}: {exc}")
            ends, rows = zip(*rows) if rows else ((), ())
            lines = np.array((end, *ends), dtype=np.int64)[:-1] + 1
            if end == 0 and (rows or error is None):  # the first row is the header
                if rows[:1] != (list(header),):
                    raise ParseError(f"{path}:1: expected header {','.join(header)}")
                lines, rows = lines[1:], rows[1:]
            widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
            wrong = np.flatnonzero((widths != w) & (widths != 0))
            stop = wrong[0] if wrong.size else len(rows)
            kept = widths[:stop] != 0
            if kept.any():
                yield lines[:stop][kept], list(zip(*filter(None, rows[:stop])))
            if wrong.size:
                raise ParseError(f"{path}:{lines[stop]}: expected {w} fields, got {widths[stop]}")
            if error is not None:
                raise error
            if len(ends) < BLOCK_LINES:
                return
            end = ends[-1]


def open_output(path):
    """Open a text file for writing as UTF-8 with '\n' line ends. Bytes that
    a non-UTF-8 locale decoded to lone surrogates (in command-line arguments
    and file names) are written back unchanged."""
    return open(path, "w", encoding="utf-8", errors="surrogateescape", newline="")


def _csv_field(text: str) -> str:
    """`text` as one field of a row of several, quoted with its '"' doubled
    if it holds ',', '"', '\n' or '\r': csv.writer's bytes from Python 3.13
    on (earlier ones leave a '\r' bare, which no LF or CRLF reader reads back)."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path, header, rows) -> None:
    """Write a CSV table: `header`, then each row's strings as given, each
    field quoted by `_csv_field`, each line ended by '\n'."""
    with open_output(path) as fh:
        for row in (header, *rows):
            fh.write(",".join(map(_csv_field, row)) + "\n")


def _sensor_prefix(n_sensors: int, where: str = "") -> tuple:
    """The schema's first `n_sensors` sensors; SchemaError unless it has them."""
    if not 1 <= n_sensors <= len(SENSOR_SCHEMA):
        raise SchemaError(f"{where}sensor count must be in [1, {len(SENSOR_SCHEMA)}], "
                          f"got {n_sensors}")
    return SENSOR_SCHEMA[:n_sensors]


def _numbers(column, kind):
    """The strings of `column` read by `kind` (int or float) into an int64 or
    float64 array, flags on the first one it cannot read, and why; that one
    and those after it read 0."""
    dtype = np.int64 if kind is int else np.float64
    bad = np.zeros(len(column), dtype=bool)
    try:
        return np.fromiter(map(kind, column), dtype=dtype, count=len(column)), bad, None
    except (ValueError, OverflowError):
        pass
    out = np.zeros(len(column), dtype=dtype)
    for i, text in enumerate(column):
        try:
            out[i] = kind(text)
        except (ValueError, OverflowError) as exc:
            bad[i] = True
            return out, bad, str(exc)


def _codes(column, index: dict) -> np.ndarray:
    """The position in `index` of each string of `column`; -1 where it has none."""
    codes = {key: index.get(key, -1) for key in set(column)}
    return np.fromiter(map(codes.__getitem__, column), dtype=np.intp, count=len(column))


def _first_error(n: int, checks: list):
    """(row, error) for the earliest failing row of a block of `n` rows, or
    (n, None). `checks` pairs an array flagging rows with a function that
    makes a row's error, in the order one row is checked, so of the checks
    that flag the earliest row, the first names it."""
    flagged = np.zeros(n, dtype=bool)
    for bad, _ in checks:
        flagged |= bad
    if not flagged.any():
        return n, None
    row = int(flagged.argmax())
    return row, next(error(row) for bad, error in checks if bad[row])


def load_dataset_dir(path, n_sensors: int, labeled: bool = False) -> Dataset:
    """Read the cohort in directory `path` over the schema's first
    `n_sensors` sensors, as a Dataset named after the directory.

    labels.csv is optional unless `labeled`; if present, it labels every
    patient in statics once. With `labeled`, measurements.csv must name
    every sensor. A duplicate (patient, sensor, hour) cell keeps its later
    value with a warning; a row back in time for a patient and sensor, a
    number that is not finite, an hour or stay_hours above MAX_HOUR, or a
    patient id in statics holding a NUL is a ParseError. Each failure is a
    SchemaError or ParseError naming the path, and the line of the earliest
    row that fails. statics.csv and labels.csv, a row per stay, are checked
    row by row; measurements.csv, a row per measurement and so nearly all of
    a cohort's lines, in numpy passes over each block's columns.
    """
    if not os.path.isdir(path):
        raise SchemaError(f"data directory not found: {path}")
    sensors = _sensor_prefix(n_sensors, f"{path}: ")
    sensor_index = {s: i for i, s in enumerate(sensors)}
    measurements_path, statics_path, labels_path = (
        os.path.join(path, f"{table}.csv") for table in ("measurements", "statics", "labels"))
    if labeled and not os.path.exists(labels_path):
        raise SchemaError(f"{path} has no labels.csv; this command needs a labeled cohort")

    index: dict[str, int] = {}  # patient -> position in statics.csv
    stats = []  # per patient: the statics, then stay_hours
    for lines, columns in read_table(statics_path, STATICS_HEADER):
        for line, pid, *fields in zip(lines, *columns):
            at = f"{statics_path}:{line}"
            if "\0" in pid:  # Python 3.10's csv module rejects it, later ones read it
                raise ParseError(f"{at}: line contains NUL")
            try:
                row = [float(text) for text in fields]
            except ValueError as exc:
                raise ParseError(f"{at}: {exc}") from None
            for name, number in zip(STATICS_HEADER[1:], row):
                if not math.isfinite(number):
                    raise ParseError(f"{at}: {name} must be finite, got {number}")
            if row[-1] > MAX_HOUR:
                raise ParseError(f"{at}: stay_hours must be at most {MAX_HOUR}, got {row[-1]}")
            if pid in index:
                raise ParseError(f"{at}: duplicate patient_id {pid!r}")
            index[pid] = len(index)
            stats.append(row)
    stats = np.array(stats).reshape(len(index), len(STATICS_HEADER) - 1)
    order = list(index)

    labels: dict[str, int] = {}
    if os.path.exists(labels_path):
        for lines, columns in read_table(labels_path, LABELS_HEADER):
            for line, pid, mortality in zip(lines, *columns):
                at = f"{labels_path}:{line}"
                if mortality not in ("0", "1"):
                    raise ParseError(f"{at}: mortality must be 0 or 1")
                if pid not in index:
                    raise SchemaError(f"{at}: patient {pid!r} missing from statics")
                if pid in labels:
                    raise ParseError(f"{at}: duplicate patient_id {pid!r}")
                labels[pid] = int(mortality)
        unlabeled = [pid for pid in order if pid not in labels]
        if unlabeled:
            raise SchemaError(f"{labels_path}: no label for patient {unlabeled[0]!r}")

    # accepted rows, block by block: patient position, sensor index, hour, value
    accepted = []
    last_hour = np.full(len(order) * n_sensors, -1, dtype=np.int64)  # per (patient, sensor)
    for lines, (pids, hour_col, sensor_col, value_col) in read_table(
            measurements_path, MEASUREMENTS_HEADER):
        n = len(lines)
        patient = _codes(pids, index)
        sensor = _codes(sensor_col, sensor_index)
        hours, bad_hour, hour_reason = _numbers(hour_col, int)
        values, bad_value, value_reason = _numbers(value_col, float)
        # each row's previous hour in its series: the row before it in the
        # block, or the series' last hour in earlier blocks (-1 for none)
        key = np.where((patient >= 0) & (sensor >= 0), patient * n_sensors + sensor, 0)
        by_key = np.argsort(key, kind="stable")
        k, h = key[by_key], hours[by_key]
        follows = np.zeros(n, dtype=bool)
        follows[1:] = k[1:] == k[:-1]
        prev = np.empty(n, dtype=np.int64)
        prev[by_key] = np.where(follows, np.roll(h, 1), last_hour[k])

        def at(i):
            return f"{measurements_path}:{lines[i]}"

        stop, error = _first_error(n, [
            (sensor < 0, lambda i: SchemaError(f"{at(i)}: unknown sensor {sensor_col[i]!r}")),
            (bad_hour, lambda i: ParseError(f"{at(i)}: {hour_reason}")),
            (bad_value, lambda i: ParseError(f"{at(i)}: {value_reason}")),
            (hours < 0, lambda i: ParseError(f"{at(i)}: negative hour {hours[i]}")),
            (~np.isfinite(values), lambda i: ParseError(
                f"{at(i)}: value must be finite, got {values[i]}")),
            (hours > MAX_HOUR, lambda i: ParseError(
                f"{at(i)}: hour must be at most {MAX_HOUR}, got {hours[i]}")),
            (patient < 0, lambda i: SchemaError(
                f"{at(i)}: patient {pids[i]!r} missing from statics")),
            (hours < prev, lambda i: ParseError(
                f"{at(i)}: non-monotone timestamp for ({pids[i]}, {sensor_col[i]}): "
                f"hour {hours[i]} after hour {prev[i]}")),
        ])
        for i in np.flatnonzero(hours[:stop] == prev[:stop]):
            logger.warning("%s:%d: duplicate cell (%s, %s, %d); keeping the later value",
                           measurements_path, lines[i], pids[i], sensor_col[i], hours[i])
        if error:
            raise error
        ends = np.ones(n, dtype=bool)
        ends[:-1] = k[1:] != k[:-1]
        last_hour[k[ends]] = h[ends]
        accepted.append((patient, sensor, hours, values))

    empty = (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, np.int64), np.zeros(0))
    patient, sensor, hours, values = map(np.concatenate, zip(empty, *accepted))
    if labeled and (named := len(np.unique(sensor))) < n_sensors:
        raise SchemaError(f"{path}: measurements.csv names {named} sensors, "
                          f"but model.sensors_count is {n_sensors}")

    # by patient, then sensor, then hour; of two duplicate cells the later holds
    key = patient * n_sensors + sensor
    cells = np.argsort(key, kind="stable")
    k, h = key[cells], hours[cells]
    later = np.ones(len(cells), dtype=bool)
    later[:-1] = (k[1:] != k[:-1]) | (h[1:] != h[:-1])
    cells = cells[later]
    patient, sensor, hours, values = patient[cells], sensor[cells], hours[cells], values[cells]
    bounds = np.searchsorted(patient, np.arange(len(order) + 1))

    episodes = []
    stays = stats[:, -1].tolist()
    for i, pid in enumerate(order):
        rows = slice(bounds[i], bounds[i + 1])
        stay = stays[i]
        t_len = max(int(np.ceil(max(stay, 0.0))), 1, int(hours[rows].max(initial=0)) + 1)
        ep_values = np.zeros((n_sensors, t_len))
        mask = np.zeros((n_sensors, t_len), dtype=bool)
        ep_values[sensor[rows], hours[rows]] = values[rows]
        mask[sensor[rows], hours[rows]] = True
        episodes.append(EpisodeRecord(
            patient_id=pid,
            values=ep_values,
            mask=mask,
            statics=stats[i, :-1],
            stay_hours=stay,
            label=labels.get(pid),
        ))
    return Dataset.from_episodes(os.path.basename(os.path.normpath(path)), episodes)


def write_dataset_csvs(ds: Dataset, out_dir) -> None:
    """Write measurements/statics/labels CSVs; deterministic row order.
    A dataset with labels on some stays but not all is a SchemaError.

    Each table holds the bytes `write_table` writes for rows (patient_id,
    hour, sensor, f"{value:.4f}"), (patient_id, f"{age:.1f}", int(female),
    f"{height_cm:.1f}", f"{weight_kg:.1f}", int(stay_hours)) and
    (patient_id, mortality). measurements.csv, nearly all of a cohort's
    lines, quotes each stay's id once and formats its lines in one pass."""
    n_labeled = sum(ep.label is not None for ep in ds.episodes)
    if 0 < n_labeled < len(ds):
        raise SchemaError(f"{ds.name}: {len(ds) - n_labeled} of {len(ds)} stays have no label")
    os.makedirs(out_dir, exist_ok=True)
    with open_output(os.path.join(out_dir, "measurements.csv")) as fh:
        fh.write(",".join(MEASUREMENTS_HEADER) + "\n")
        for ep in ds.episodes:
            d_idx, t_idx = np.nonzero(ep.mask)
            line = _csv_field(ep.patient_id).replace("%", "%%") + ",%d,%s,%.4f\n"
            fh.write("".join(map(line.__mod__, zip(
                t_idx.tolist(), map(SENSOR_SCHEMA.__getitem__, d_idx.tolist()),
                ep.values[d_idx, t_idx].tolist()))))
    write_table(os.path.join(out_dir, "statics.csv"), STATICS_HEADER, (
        (ep.patient_id, f"{ep.statics[0]:.1f}", str(int(ep.statics[1])), f"{ep.statics[2]:.1f}",
         f"{ep.statics[3]:.1f}", str(int(ep.stay_hours))) for ep in ds.episodes))
    if n_labeled:
        write_table(os.path.join(out_dir, "labels.csv"), LABELS_HEADER,
                    ((ep.patient_id, str(ep.label)) for ep in ds.episodes))


# ---------------------------------------------------------------------------
# exclusions


def _grid_criteria_ok(mask: np.ndarray) -> bool:
    """At least 4 observed hours, and no gap over 12h (counting the leading
    gap from admission)."""
    obs_hours = np.flatnonzero(mask.any(axis=0))
    gaps = np.diff(obs_hours, prepend=0)  # the leading gap first
    return obs_hours.size >= MIN_VALID_POINTS and gaps.max() <= MAX_GAP_HOURS


def apply_exclusions(ds: Dataset, task: str) -> Dataset:
    """Drop episodes violating the cohort criteria; idempotent per task.

    Base criteria (both tasks): non-negative stay, stay >= 6h, >= 4
    observed hours, no measurement gap > 12h, age >= 18. The mortality
    task additionally requires stay >= 30h and truncates inputs to the
    first 24 hours (the grid criteria are checked on the truncated
    window so a second application changes nothing). The pretrain task
    discards labels.
    """
    if task not in ("pretrain", "mortality"):
        raise ValueError(f"unknown task {task!r}")
    mortality = task == "mortality"
    kept = []
    for ep in ds.episodes:
        age = ep.statics[0]
        if ep.stay_hours < 0 or ep.stay_hours < MIN_STAY_HOURS or age < MIN_AGE_YEARS:
            continue
        if mortality and ep.stay_hours < MORTALITY_MIN_STAY_HOURS:
            continue
        t_cut = min(ep.n_hours, MORTALITY_INPUT_HOURS) if mortality else ep.n_hours
        if not _grid_criteria_ok(ep.mask[:, :t_cut]):
            continue
        if t_cut < ep.n_hours:
            ep = replace(ep, values=ep.values[:, :t_cut].copy(), mask=ep.mask[:, :t_cut].copy())
        kept.append(ep if mortality else replace(ep, label=None))
    return Dataset.from_episodes(ds.name, kept)


# ---------------------------------------------------------------------------
# preprocessing


def fit_preprocessor(train: list, fitted_on: str = "train") -> PreprocessorState:
    """Per-feature mean/std over observed cells only; population std,
    floored at 1e-6. Never-observed features fall back to (0, 1)."""
    if not train:
        raise ValueError("cannot fit a preprocessor on an empty training split")
    n_sensors = train[0].n_sensors
    total = np.zeros(n_sensors)
    total_sq = np.zeros(n_sensors)
    count = np.zeros(n_sensors)
    for ep in train:
        observed = np.where(ep.mask, ep.values, 0.0)
        total += observed.sum(axis=1)
        total_sq += (observed ** 2).sum(axis=1)
        count += ep.mask.sum(axis=1)
    never = count == 0
    if never.any():
        logger.warning("features never observed in training split: %s "
                       "(defaulting to mean 0, std 1)", np.nonzero(never)[0].tolist())
    safe = np.maximum(count, 1)
    tv_mean = np.where(never, 0.0, total / safe)
    tv_var = np.where(never, 1.0, total_sq / safe - tv_mean ** 2)
    tv_std = np.maximum(np.sqrt(np.maximum(tv_var, 0.0)), STD_FLOOR)
    tv_std = np.where(never, 1.0, tv_std)

    stat = np.stack([ep.statics for ep in train])
    static_mean = stat.mean(axis=0)
    static_std = np.maximum(stat.std(axis=0), STD_FLOOR)
    return PreprocessorState(tv_mean, tv_std, static_mean, static_std, fitted_on)


def transform_all(episodes: list, pp: PreprocessorState) -> list:
    """Impute and standardize episodes in one pass over their hours,
    concatenated along time; each stay gets a view of the result.

    Values are forward-filled within each stay, leading gaps take the
    training mean, then everything is standardized. Each stay keeps its
    mask as the missingness indicator; cells with mask false are never
    read, only overwritten.
    """
    if not episodes:
        return []
    hours = [ep.n_hours for ep in episodes]
    ends = np.cumsum(hours)
    starts = ends - hours
    values = np.concatenate([ep.values for ep in episodes], axis=1)
    mask = np.concatenate([ep.mask for ep in episodes], axis=1)
    # per cell, the last observed hour of its stay so far, or the hour before
    # the stay's first if it has none yet
    first = np.repeat(starts, hours)
    seen = np.where(mask, np.arange(values.shape[1]), first - 1)
    np.maximum.accumulate(seen, axis=1, out=seen)
    standardized = np.take_along_axis(values, seen, axis=1)
    lead = seen < first
    # a NaN observed, and the hours it fills, take the mean as a leading gap does
    lead |= np.isnan(standardized)
    mean, std = pp.tv_mean[:, None], pp.tv_std[:, None]
    np.copyto(standardized, mean, where=lead)
    standardized -= mean
    standardized /= std
    statics = (np.stack([ep.statics for ep in episodes]) - pp.static_mean) / pp.static_std
    return [replace(ep, values=standardized[:, a:b], statics=s)
            for ep, a, b, s in zip(episodes, starts, ends, statics)]


# ---------------------------------------------------------------------------
# pooling, subsampling, splits


def pool_datasets(datasets: list) -> Dataset:
    """Concatenate datasets whose stays share one sensor count into one
    corpus; stays of different counts are a SchemaError.

    Patient ids are prefixed with the source name so disjointness holds
    across sources; two sources of the same name that share a raw id are
    an error.
    """
    if not datasets:
        raise ValueError("nothing to pool")
    episodes, seen = [], set()
    sources = {}  # sensor count -> the first source holding a stay of it
    for ds in datasets:
        for ep in ds.episodes:
            sources.setdefault(ep.n_sensors, ds.name)
            out = replace(ep, patient_id=f"{ds.name}/{ep.patient_id}")
            if out.patient_id in seen:
                raise ValueError(
                    f"duplicate patient id {out.patient_id!r} across pooled sources"
                )
            seen.add(out.patient_id)
            episodes.append(out)
    if len(sources) > 1:
        raise SchemaError("schema mismatch: " + ", ".join(
            f"{name} has stays of {d} sensors" for d, name in sources.items()))
    return Dataset.from_episodes("+".join(ds.name for ds in datasets), episodes)


def subsample_preserving_prevalence(ds: Dataset, size: int, seed: int) -> Dataset:
    """Class-stratified subsample: positives = round(size * prevalence),
    at least 1 and at most size - 1, so each class keeps one stay; uniform
    without replacement within each class. A size that cannot be drawn
    raises SubsampleError."""
    if size < 2:
        raise SubsampleError(f"subsample size must be >= 2, got {size}")
    if size > len(ds):
        raise SubsampleError(f"subsample size {size} exceeds dataset size {len(ds)}")
    labels = ds.labels()
    if (labels < 0).any():
        raise ValueError("subsampling requires a fully labeled dataset")
    pos_idx = np.nonzero(labels == 1)[0]
    neg_idx = np.nonzero(labels == 0)[0]
    prevalence = len(pos_idx) / len(ds)
    n_pos = min(max(1, int(np.floor(size * prevalence + 0.5))), size - 1)
    n_neg = size - n_pos
    if n_pos > len(pos_idx):
        raise SubsampleError(f"positive class exhausted: need {n_pos}, have {len(pos_idx)}")
    if n_neg > len(neg_idx):
        raise SubsampleError(f"negative class exhausted: need {n_neg}, have {len(neg_idx)}")
    rng = substream(seed, "subsample")
    take_pos = rng.choice(pos_idx, size=n_pos, replace=False)
    take_neg = rng.choice(neg_idx, size=n_neg, replace=False)
    chosen = np.concatenate([take_pos, take_neg])
    chosen = chosen[rng.permutation(len(chosen))]
    return Dataset.from_episodes(ds.name, [ds.episodes[i] for i in chosen])


def _stratified_cut(labels: np.ndarray, frac: float, rng, min_class: int):
    """Cut `frac` of the indices of `labels` off, class by class.

    Each class, positives first, is permuted with `rng` and its first
    max(1, round(frac * size)) members are cut. All indices form one group
    when a label is not 0 or 1, or a class has fewer than `min_class`
    members. Returns (cut, rest, stratified); each index array holds the
    groups in turn, each in its permuted order.
    """
    classes = [np.nonzero(labels == 1)[0], np.nonzero(labels == 0)[0]]
    stratified = (sum(len(c) for c in classes) == len(labels)
                  and min(len(c) for c in classes) >= min_class)
    cut, rest = [], []
    for group in classes if stratified else [np.arange(len(labels))]:
        perm = group[rng.permutation(len(group))]
        n_cut = max(1, int(round(frac * len(perm))))
        cut.append(perm[:n_cut])
        rest.append(perm[n_cut:])
    return np.concatenate(cut), np.concatenate(rest), stratified


def _test_cut(ds: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stratified TEST_FRAC cut of the cohort: returns the indices of (the
    test split, the pool), each in its permuted class order.

    Falls back to an unstratified cut (with a warning) when a class has
    fewer than 2 stays, one for the test split and one for the pool.
    """
    if len(ds) < 10:
        raise ValueError(f"need at least 10 episodes to split, got {len(ds)}")
    labels = ds.labels()
    test, pool, stratified = _stratified_cut(
        labels, TEST_FRAC, substream(seed, "splits"), 2)
    if not stratified and (labels >= 0).all():
        logger.warning("too few samples in a class to stratify (%d pos / %d neg); "
                       "splitting unstratified", (labels == 1).sum(), (labels == 0).sum())
    return test, pool


def split_test(ds: Dataset, seed: int) -> tuple[Dataset, list]:
    """Hold out the test split: returns (the training pool as a Dataset,
    the test episodes), both in cohort order."""
    test, pool = (np.sort(idx) for idx in _test_cut(ds, seed))
    return (Dataset.from_episodes(ds.name, [ds.episodes[i] for i in pool]),
            [ds.episodes[i] for i in test])


def folds(ds: Dataset, seed: int, n_folds: int = 5) -> list:
    """An n-fold rotation over the pool of `split_test(ds, seed)`: returns
    [(train episodes, validation episodes)] per fold, each in cohort order.

    The stays of the test split are in no fold, so a caller of `folds`
    never reads them.
    """
    _, pool = _test_cut(ds, seed)
    # round-robin over the class-ordered pool keeps fold sizes equal and
    # each class spread within one element of even
    vals = [np.sort(pool[k::n_folds]) for k in range(n_folds)]
    return [([ds.episodes[i] for i in np.setdiff1d(pool, val)], [ds.episodes[i] for i in val])
            for val in vals]


def stratified_split(ds: Dataset, val_frac: float, rng) -> tuple[list, list]:
    """Per-class split of the episodes into (train, validation). The lone
    member of a class trains, and validation is cut from the others, which
    form one group when a class has no member or a label is missing."""
    labels = ds.labels()
    lone = [m[0] for m in (np.nonzero(labels == c)[0] for c in (1, 0)) if len(m) == 1]
    rest = np.setdiff1d(np.arange(len(labels)), lone)
    val, train, _ = _stratified_cut(labels[rest], val_frac, rng, 2)
    return [ds.episodes[i] for i in [*lone, *rest[train]]], [ds.episodes[i] for i in rest[val]]


# ---------------------------------------------------------------------------
# synthetic generator
#
# A per-patient latent severity follows an AR(1) walk shared across all
# generated datasets; sensors load on it with fixed coefficients, and the
# observation process is severity-dependent (sicker patients get measured
# more often), so the missingness pattern itself carries signal.

_DYNAMICS_SEED = 202_406
_SEVERITY_PHI = 0.98
_SEVERITY_STEP = 0.22
# every drawn stay is clipped to this range of hours
SYNTHETIC_STAY_HOURS = (31, 14 * 24)


def _dynamics(n_sensors: int, availability_profile: int) -> dict:
    rng = substream(_DYNAMICS_SEED, "dynamics")
    d_full = len(SENSOR_SCHEMA)
    sign = np.where(rng.random(d_full) < 0.5, -1.0, 1.0)
    loading = sign * rng.uniform(0.25, 0.95, d_full)
    offset = rng.uniform(-40.0, 120.0, d_full)
    amp = rng.uniform(2.0, 12.0, d_full)
    patient_coupling = rng.uniform(0.2, 0.6, d_full)
    noise = rng.uniform(0.35, 0.85, d_full)
    is_vital = np.array([s in VITAL_SENSORS for s in SENSOR_SCHEMA])
    kappa = np.where(is_vital, 0.6, rng.uniform(2.0, 6.0, d_full))
    if availability_profile != 0:
        prof = substream(_DYNAMICS_SEED, "availability", availability_profile)
        lab_idx = np.nonzero(~is_vital)[0]
        kappa[lab_idx] = kappa[lab_idx[prof.permutation(len(lab_idx))]]
        kappa = kappa * np.where(is_vital, 1.0, prof.uniform(0.75, 1.3, d_full))
    take = slice(0, n_sensors)
    return {
        "loading": loading[take], "offset": offset[take], "amp": amp[take],
        "patient_coupling": patient_coupling[take], "noise": noise[take],
        "kappa": kappa[take],
    }


@dataclass
class DataConfig:
    """The [data] section: cohort directories, checkpoints, and what
    `generate_synthetic` draws. Its rules are the generator's, so every
    command rejects a cohort that `generate` could not draw."""
    paths: list[str] = field(default_factory=list)
    checkpoint: list[str] = field(default_factory=list)
    n: int = 1000
    prevalence: float = 0.119
    mean_stay_hours: float = 48.0
    sparsity: float = 0.5
    availability_profile: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 < self.prevalence < 1:
            raise ValueError(f"prevalence must be in (0, 1), got {self.prevalence}")
        if not 0 <= self.sparsity < 1:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        lo, hi = SYNTHETIC_STAY_HOURS
        if not lo <= self.mean_stay_hours <= hi:  # NaN too
            raise ValueError(f"mean_stay_hours must be in [{lo}, {hi}], the range every "
                             f"drawn stay is clipped to, got {self.mean_stay_hours}")
        k = self.positives  # the closest achievable prevalence is k / n
        if k < 1 or abs(k / self.n - self.prevalence) > 0.01:
            raise ValueError(f"cannot calibrate prevalence {self.prevalence} with "
                             f"n={self.n} (closest achievable {k / self.n:.4f})")

    @property
    def positives(self) -> int:  # labels generate_synthetic draws as 1
        return int(np.floor(self.prevalence * self.n + 0.5))


def generate_synthetic(n: int, prevalence: float, mean_stay_hours: float = 48.0,
                       sparsity: float = 0.5, seed: int = 0,
                       n_sensors: int = len(SENSOR_SCHEMA),
                       availability_profile: int = 0,
                       name: str | None = None) -> Dataset:
    """Generate a labeled synthetic cohort with the reference schema.

    The mortality label is the indicator that mean latent severity over
    the final 6 hours exceeds a threshold calibrated to the requested
    prevalence. Its arguments are checked by `DataConfig`'s rules, before
    any draw. sparsity 0 observes every cell; higher values thin the
    per-sensor observation rates, labs much more aggressively than vitals.
    """
    k = DataConfig(n=n, prevalence=prevalence, mean_stay_hours=mean_stay_hours,
                   sparsity=sparsity).positives
    _sensor_prefix(n_sensors)
    dyn = _dynamics(n_sensors, availability_profile)
    rng = substream(seed, "synthetic")
    name = name or f"synthetic{seed}"

    episodes = []
    severity_scores = np.zeros(n)
    for i in range(n):
        age = rng.uniform(18.0, 95.0)
        female = float(rng.random() < 0.5)
        height = float(np.clip(rng.normal(176.0 - 12.0 * female, 8.0), 145.0, 205.0))
        weight = float(np.clip(rng.normal(80.0 - 8.0 * female, 15.0), 40.0, 160.0))
        stay = int(np.clip(rng.gamma(6.0, mean_stay_hours / 6.0), *SYNTHETIC_STAY_HOURS))
        t_len = stay

        s = np.empty(t_len)
        s[0] = 0.3 * (age - 55.0) / 20.0 + rng.normal(0.0, 0.9)
        steps = rng.normal(0.0, _SEVERITY_STEP, t_len - 1)
        for t in range(1, t_len):
            s[t] = _SEVERITY_PHI * s[t - 1] + steps[t - 1]

        eps = rng.normal(0.0, 1.0, (n_sensors, t_len))
        u = rng.normal(0.0, 1.0, n_sensors)
        values = (dyn["offset"][:, None]
                  + dyn["amp"][:, None] * (dyn["loading"][:, None] * s[None, :]
                                           + dyn["patient_coupling"][:, None] * u[:, None]
                                           + dyn["noise"][:, None] * eps))

        # observation probability: (1-sparsity)^(kappa * m), with the
        # exponent shrunk for sick hours and for the admission battery
        modulation = np.maximum(1.0 - 0.55 * np.tanh(s), 0.25)[None, :]
        exponent = dyn["kappa"][:, None] * modulation
        exponent[:, 0] = exponent[:, 0] * 0.25
        p_obs = (1.0 - sparsity) ** exponent
        mask = rng.random((n_sensors, t_len)) < p_obs

        tail = min(6, t_len)
        severity_scores[i] = s[-tail:].mean()
        episodes.append(EpisodeRecord(
            patient_id=f"p{i:06d}",
            values=values,
            mask=mask,
            statics=np.array([age, female, height, weight]),
            stay_hours=float(stay),
            label=0,
        ))

    top = np.argsort(-severity_scores, kind="mergesort")[:k]
    for i in top:
        episodes[i] = replace(episodes[i], label=1)
    return Dataset.from_episodes(name, episodes)
