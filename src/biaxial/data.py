"""Clinical time-series data model, file ingestion, preprocessing and synthesis.

An episode is one ICU stay resampled to a 1-hour grid: a values grid of
shape D x T, a boolean observation mask of the same shape, static
demographics and an optional mortality label. The canonical schema has
48 time-varying sensors and 4 statics; smaller experiments use a prefix
of the sensor list.

On disk a dataset is a directory of three UTF-8 CSV tables ('.' decimals,
no thousands separators), measurements.csv, statics.csv and labels.csv,
with headers MEASUREMENTS_HEADER, STATICS_HEADER and LABELS_HEADER;
`load_dataset_dir` is its one reader and makes every check of it.

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
Only a stay cut to its first 24 hours gets new arrays.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from collections import defaultdict
from dataclasses import dataclass, field, replace

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

STD_FLOOR = 1e-6

TEST_FRAC = 0.2   # of a cohort, held out as its test split
VAL_FRAC = 0.2    # of a training set, held out for validation


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


def read_table(path, header, empty_ok: bool = False):
    """Yield (line number, row) for each non-blank row of a UTF-8 CSV table.

    The first line must be `header` and every row must have one field per
    header column; anything else raises ParseError("path:line: ...").
    With empty_ok, a file with no lines at all is an empty table.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        first = next(rows, None)
        if first is None and empty_ok:
            return
        if first != list(header):
            raise ParseError(f"{path}:1: expected header {','.join(header)}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row


def open_output(path):
    """Open a text file for writing as UTF-8 with '\n' line ends. Bytes that
    a non-UTF-8 locale decoded to lone surrogates (in command-line arguments
    and file names) are written back unchanged."""
    return open(path, "w", encoding="utf-8", errors="surrogateescape", newline="")


def write_table(path, header, rows) -> None:
    """Write a CSV table: `header`, then each row's cells as given."""
    with open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sensor_prefix(n_sensors: int, where: str = "") -> tuple:
    """The schema's first `n_sensors` sensors; SchemaError unless it has them."""
    if not 1 <= n_sensors <= len(SENSOR_SCHEMA):
        raise SchemaError(f"{where}sensor count must be in [1, {len(SENSOR_SCHEMA)}], "
                          f"got {n_sensors}")
    return SENSOR_SCHEMA[:n_sensors]


def load_dataset_dir(path, n_sensors: int, labeled: bool = False) -> Dataset:
    """Read the cohort in directory `path` over the schema's first
    `n_sensors` sensors, as a Dataset named after the directory.

    labels.csv is optional unless `labeled`; if present, it labels every
    patient in statics once. With `labeled`, measurements.csv must name
    every sensor. A duplicate (patient, sensor, hour) cell keeps its later
    value with a warning; a row back in time for a patient and sensor, or a
    number that is not finite, is a ParseError. Each failure is a
    SchemaError or ParseError naming the path.
    """
    if not os.path.isdir(path):
        raise SchemaError(f"data directory not found: {path}")
    sensors = _sensor_prefix(n_sensors, f"{path}: ")
    sensor_index = {s: i for i, s in enumerate(sensors)}
    measurements_path, statics_path, labels_path = (
        os.path.join(path, f"{table}.csv") for table in ("measurements", "statics", "labels"))
    if labeled and not os.path.exists(labels_path):
        raise SchemaError(f"{path} has no labels.csv; this command needs a labeled cohort")

    statics: dict[str, tuple[np.ndarray, float]] = {}
    order: list[str] = []
    for lineno, (pid, *fields) in read_table(statics_path, STATICS_HEADER):
        try:
            vals = [float(x) for x in fields]
        except ValueError as exc:
            raise ParseError(f"{statics_path}:{lineno}: {exc}") from None
        for column, v in zip(STATICS_HEADER[1:], vals):
            if not math.isfinite(v):
                raise ParseError(f"{statics_path}:{lineno}: {column} must be finite, got {v}")
        if pid in statics:
            raise ParseError(f"{statics_path}:{lineno}: duplicate patient_id {pid!r}")
        statics[pid] = (np.array(vals[:4], dtype=np.float64), vals[4])
        order.append(pid)

    labels: dict[str, int] = {}
    if os.path.exists(labels_path):
        for lineno, (pid, mortality) in read_table(labels_path, LABELS_HEADER):
            if mortality not in ("0", "1"):
                raise ParseError(f"{labels_path}:{lineno}: mortality must be 0 or 1")
            if pid not in statics:
                raise SchemaError(
                    f"{labels_path}:{lineno}: patient {pid!r} missing from statics")
            if pid in labels:
                raise ParseError(f"{labels_path}:{lineno}: duplicate patient_id {pid!r}")
            labels[pid] = int(mortality)
        unlabeled = [pid for pid in order if pid not in labels]
        if unlabeled:
            raise SchemaError(f"{labels_path}: no label for patient {unlabeled[0]!r}")

    # (patient, sensor index) -> (hours, values), hours strictly increasing
    series: dict[tuple[str, int], tuple[list, list]] = defaultdict(lambda: ([], []))
    for lineno, (pid, hour_s, sensor, value_s) in read_table(
            measurements_path, MEASUREMENTS_HEADER, empty_ok=True):
        if sensor not in sensor_index:
            raise SchemaError(
                f"{measurements_path}:{lineno}: unknown sensor {sensor!r}"
            )
        try:
            hour = int(hour_s)
            value = float(value_s)
        except ValueError as exc:
            raise ParseError(f"{measurements_path}:{lineno}: {exc}") from None
        if hour < 0:
            raise ParseError(f"{measurements_path}:{lineno}: negative hour {hour}")
        if not math.isfinite(value):
            raise ParseError(f"{measurements_path}:{lineno}: value must be finite, got {value}")
        if pid not in statics:
            raise SchemaError(
                f"{measurements_path}:{lineno}: patient {pid!r} missing from statics"
            )
        hours, vals = series[pid, sensor_index[sensor]]
        if hours and hour <= hours[-1]:
            if hour < hours[-1]:
                raise ParseError(
                    f"{measurements_path}:{lineno}: non-monotone timestamp for "
                    f"({pid}, {sensor}): hour {hour} after hour {hours[-1]}")
            logger.warning("%s:%d: duplicate cell (%s, %s, %d); keeping the later value",
                           measurements_path, lineno, pid, sensor, hour)
            vals[-1] = value
        else:
            hours.append(hour)
            vals.append(value)

    if labeled and (named := len({d for _, d in series})) < n_sensors:
        raise SchemaError(f"{path}: measurements.csv names {named} sensors, "
                          f"but model.sensors_count is {n_sensors}")

    episodes = []
    for pid in order:
        stat_vec, stay = statics[pid]
        rows = [(d, series[pid, d]) for d in range(n_sensors) if (pid, d) in series]
        t_len = max(int(np.ceil(max(stay, 0.0))), 1, *(hours[-1] + 1 for _, (hours, _) in rows))
        values = np.zeros((n_sensors, t_len))
        mask = np.zeros((n_sensors, t_len), dtype=bool)
        for d, (hours, vals) in rows:
            values[d, hours] = vals
            mask[d, hours] = True
        episodes.append(EpisodeRecord(
            patient_id=pid,
            values=values,
            mask=mask,
            statics=stat_vec,
            stay_hours=stay,
            label=labels.get(pid),
        ))
    return Dataset.from_episodes(os.path.basename(os.path.normpath(path)), episodes)


def write_dataset_csvs(ds: Dataset, out_dir) -> None:
    """Write measurements/statics/labels CSVs; deterministic row order.
    A dataset with labels on some stays but not all is a SchemaError."""
    def measurement_rows():
        for ep in ds.episodes:
            d_idx, t_idx = np.nonzero(ep.mask)
            for d, t, value in zip(d_idx.tolist(), t_idx.tolist(),
                                   ep.values[d_idx, t_idx].tolist()):
                yield ep.patient_id, t, SENSOR_SCHEMA[d], f"{value:.4f}"

    n_labeled = sum(ep.label is not None for ep in ds.episodes)
    if 0 < n_labeled < len(ds):
        raise SchemaError(f"{ds.name}: {len(ds) - n_labeled} of {len(ds)} stays have no label")
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "measurements.csv"), MEASUREMENTS_HEADER,
                measurement_rows())
    write_table(os.path.join(out_dir, "statics.csv"), STATICS_HEADER, (
        (ep.patient_id, f"{ep.statics[0]:.1f}", int(ep.statics[1]),
         f"{ep.statics[2]:.1f}", f"{ep.statics[3]:.1f}", int(ep.stay_hours))
        for ep in ds.episodes))
    if n_labeled:
        write_table(os.path.join(out_dir, "labels.csv"), LABELS_HEADER,
                    ((ep.patient_id, ep.label) for ep in ds.episodes))


# ---------------------------------------------------------------------------
# exclusions


def _grid_criteria_ok(mask: np.ndarray) -> bool:
    """At least 4 observed hours, and no gap over 12h (counting the leading
    gap from admission)."""
    obs_hours = np.nonzero(mask.any(axis=0))[0]
    if obs_hours.size < MIN_VALID_POINTS:
        return False
    if obs_hours[0] > MAX_GAP_HOURS:
        return False
    if obs_hours.size > 1 and np.diff(obs_hours).max() > MAX_GAP_HOURS:
        return False
    return True


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


def _forward_fill(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-sensor forward fill; unfilled leading cells come back as NaN.

    Reads `values` only at observed positions.
    """
    d, t = values.shape
    idx = np.where(mask, np.arange(t)[None, :], -1)
    idx = np.maximum.accumulate(idx, axis=1)
    gathered = values[np.arange(d)[:, None], np.clip(idx, 0, None)]
    return np.where(idx >= 0, gathered, np.nan)


def transform(ep: EpisodeRecord, pp: PreprocessorState) -> EpisodeRecord:
    """Impute and standardize one episode.

    Values are forward-filled within the stay, leading gaps take the
    training mean, then everything is standardized. The original mask is
    kept as the missingness indicator; cells with mask false are never
    read, only overwritten.
    """
    filled = _forward_fill(ep.values, ep.mask)
    lead = np.isnan(filled)
    if lead.any():
        filled[lead] = np.broadcast_to(pp.tv_mean[:, None], filled.shape)[lead]
    standardized = (filled - pp.tv_mean[:, None]) / pp.tv_std[:, None]
    return replace(ep, values=standardized, statics=(ep.statics - pp.static_mean) / pp.static_std)


def transform_all(episodes: list, pp: PreprocessorState) -> list:
    return [transform(ep, pp) for ep in episodes]


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
