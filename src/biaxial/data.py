"""Clinical time-series data model, file ingestion, preprocessing and synthesis.

An episode is one ICU stay resampled to a 1-hour grid: a values grid of
shape D x T, a boolean observation mask of the same shape, static
demographics and an optional mortality label. The canonical schema has
48 time-varying sensors and 4 statics; smaller experiments use a prefix
of the sensor list.

On-disk format (UTF-8, '.' decimals, no thousands separators):

    measurements.csv  patient_id,hour,sensor,value
    statics.csv       patient_id,age,female,height_cm,weight_kg,stay_hours
    labels.csv        patient_id,mortality

Sensor names are lowercase with underscores for spaces; parenthesised
qualifiers and unit symbols are folded in (e.g. "bilirubin_direct",
"co2_partial_pressure").
"""

from __future__ import annotations

import csv
import logging
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


class SchemaError(ValueError):
    """A file or dataset disagrees with the feature schema."""


class ParseError(ValueError):
    """A data file is malformed; the message names the offending line."""


class SubsampleError(ValueError):
    """A subsample of the requested size cannot be drawn from a dataset."""


class CalibrationError(RuntimeError):
    """The synthetic generator could not hit the requested prevalence."""


@dataclass
class EpisodeRecord:
    """One ICU stay on an hourly grid."""
    patient_id: str
    values: np.ndarray          # (D, T) float64
    mask: np.ndarray            # (D, T) bool, true = observed
    hours: np.ndarray           # (T,) float64, 0..T-1 after resampling
    statics: np.ndarray         # (S,) float64: age, female, height_cm, weight_kg
    stay_hours: float
    label: int | None = None

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_hours(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "EpisodeRecord":
        return EpisodeRecord(
            patient_id=self.patient_id,
            values=self.values.copy(),
            mask=self.mask.copy(),
            hours=self.hours.copy(),
            statics=self.statics.copy(),
            stay_hours=self.stay_hours,
            label=self.label,
        )


@dataclass
class Dataset:
    """A named collection of episodes sharing one sensor schema."""
    name: str
    episodes: list
    sensors: tuple = SENSOR_SCHEMA
    prevalence: float | None = None

    @classmethod
    def from_episodes(cls, name: str, episodes: list,
                      sensors: tuple = SENSOR_SCHEMA) -> "Dataset":
        return cls(name=name, episodes=list(episodes), sensors=tuple(sensors),
                   prevalence=_prevalence_of(episodes))

    def __len__(self) -> int:
        return len(self.episodes)

    def labels(self) -> np.ndarray:
        return np.array([-1 if ep.label is None else ep.label for ep in self.episodes])

    def recomputed_prevalence(self) -> float | None:
        return _prevalence_of(self.episodes)


def _prevalence_of(episodes) -> float | None:
    labeled = [ep.label for ep in episodes if ep.label is not None]
    if not labeled:
        return None
    return float(np.mean(labeled))


@dataclass
class PreprocessorState:
    """Per-feature standardization statistics fitted on a training split."""
    tv_mean: np.ndarray
    tv_std: np.ndarray
    static_mean: np.ndarray
    static_std: np.ndarray
    fitted_on: str = ""

    def as_arrays(self) -> dict:
        return {
            "preproc/tv_mean": self.tv_mean,
            "preproc/tv_std": self.tv_std,
            "preproc/static_mean": self.static_mean,
            "preproc/static_std": self.static_std,
        }

    @classmethod
    def from_arrays(cls, arrays: dict, fitted_on: str = "") -> "PreprocessorState":
        return cls(
            tv_mean=np.asarray(arrays["preproc/tv_mean"], dtype=np.float64),
            tv_std=np.asarray(arrays["preproc/tv_std"], dtype=np.float64),
            static_mean=np.asarray(arrays["preproc/static_mean"], dtype=np.float64),
            static_std=np.asarray(arrays["preproc/static_std"], dtype=np.float64),
            fitted_on=fitted_on,
        )


@dataclass
class SplitPlan:
    """An 80/20 test split plus a five-fold rotation over the 80% pool."""
    test_ids: list
    folds: list = field(default_factory=list)  # [(train_ids, val_ids)] x 5

    def pool_ids(self) -> list:
        return sorted(set(self.folds[0][0]) | set(self.folds[0][1]))


# ---------------------------------------------------------------------------
# file ingestion


def _open_rows(path):
    fh = open(path, "r", encoding="utf-8", newline="")
    return fh, csv.reader(fh)


def load_dataset(measurements_path, statics_path, labels_path=None,
                 name: str = "dataset", sensors: tuple = SENSOR_SCHEMA) -> Dataset:
    """Assemble one EpisodeRecord per patient from the three CSV files.

    Duplicate (patient, sensor, hour) cells resolve last-write-wins with a
    logged warning; a row that moves backwards in time for the same patient
    and sensor is a parse error. labels_path may be omitted for unlabeled
    cohorts.
    """
    sensors = tuple(sensors)
    unknown = set(sensors) - set(SENSOR_SCHEMA)
    if unknown:
        raise SchemaError(f"sensors not in the 48-name schema: {sorted(unknown)}")
    sensor_index = {s: i for i, s in enumerate(sensors)}

    statics: dict[str, tuple[np.ndarray, float]] = {}
    order: list[str] = []
    fh, rows = _open_rows(statics_path)
    with fh:
        header = next(rows, None)
        expected = ["patient_id", "age", "female", "height_cm", "weight_kg", "stay_hours"]
        if header != expected:
            raise ParseError(f"{statics_path}:1: expected header {','.join(expected)}")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"{statics_path}:{lineno}: expected 6 fields, got {len(row)}")
            pid = row[0]
            try:
                vals = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise ParseError(f"{statics_path}:{lineno}: {exc}") from None
            if pid in statics:
                raise ParseError(f"{statics_path}:{lineno}: duplicate patient_id {pid!r}")
            statics[pid] = (np.array(vals[:4], dtype=np.float64), vals[4])
            order.append(pid)

    labels: dict[str, int] = {}
    if labels_path is not None:
        fh, rows = _open_rows(labels_path)
        with fh:
            header = next(rows, None)
            if header != ["patient_id", "mortality"]:
                raise ParseError(f"{labels_path}:1: expected header patient_id,mortality")
            for lineno, row in enumerate(rows, start=2):
                if not row:
                    continue
                if len(row) != 2 or row[1] not in ("0", "1"):
                    raise ParseError(f"{labels_path}:{lineno}: mortality must be 0 or 1")
                labels[row[0]] = int(row[1])

    cells: dict[str, dict[tuple[int, int], float]] = {pid: {} for pid in statics}
    last_hour: dict[tuple[str, int], int] = {}
    max_hour: dict[str, int] = {}
    fh, rows = _open_rows(measurements_path)
    with fh:
        header = next(rows, None)
        if header is not None and header != ["patient_id", "hour", "sensor", "value"]:
            raise ParseError(f"{measurements_path}:1: expected header patient_id,hour,sensor,value")
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{measurements_path}:{lineno}: expected 4 fields, got {len(row)}")
            pid, hour_s, sensor, value_s = row
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
            if pid not in statics:
                raise SchemaError(
                    f"{measurements_path}:{lineno}: patient {pid!r} missing from statics"
                )
            d = sensor_index[sensor]
            key = (pid, d)
            prev = last_hour.get(key)
            if prev is not None and hour < prev:
                raise ParseError(
                    f"{measurements_path}:{lineno}: non-monotone timestamp for "
                    f"({pid}, {sensor}): hour {hour} after hour {prev}"
                )
            if prev is not None and hour == prev:
                logger.warning("%s:%d: duplicate cell (%s, %s, %d); keeping the later value",
                               measurements_path, lineno, pid, sensor, hour)
            last_hour[key] = hour
            cells[pid][(d, hour)] = value
            max_hour[pid] = max(max_hour.get(pid, -1), hour)

    episodes = []
    for pid in order:
        stat_vec, stay = statics[pid]
        t_len = max(int(np.ceil(max(stay, 0.0))), max_hour.get(pid, -1) + 1, 1)
        values = np.zeros((len(sensors), t_len))
        mask = np.zeros((len(sensors), t_len), dtype=bool)
        for (d, hour), value in cells[pid].items():
            values[d, hour] = value
            mask[d, hour] = True
        episodes.append(EpisodeRecord(
            patient_id=pid,
            values=values,
            mask=mask,
            hours=np.arange(t_len, dtype=np.float64),
            statics=stat_vec,
            stay_hours=stay,
            label=labels.get(pid),
        ))
    return Dataset.from_episodes(name, episodes, sensors=sensors)


def write_dataset_csvs(ds: Dataset, out_dir) -> None:
    """Write measurements/statics/labels CSVs; deterministic row order."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "measurements.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["patient_id", "hour", "sensor", "value"])
        for ep in ds.episodes:
            d_idx, t_idx = np.nonzero(ep.mask)
            for d, t in zip(d_idx.tolist(), t_idx.tolist()):
                w.writerow([ep.patient_id, t, ds.sensors[d], f"{ep.values[d, t]:.4f}"])
    with open(os.path.join(out_dir, "statics.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["patient_id", "age", "female", "height_cm", "weight_kg", "stay_hours"])
        for ep in ds.episodes:
            age, female, height, weight = ep.statics
            w.writerow([ep.patient_id, f"{age:.1f}", int(female), f"{height:.1f}",
                        f"{weight:.1f}", int(ep.stay_hours)])
    labeled = [ep for ep in ds.episodes if ep.label is not None]
    if labeled:
        with open(os.path.join(out_dir, "labels.csv"), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["patient_id", "mortality"])
            for ep in labeled:
                w.writerow([ep.patient_id, ep.label])


def load_dataset_dir(path, name: str | None = None,
                     sensors: tuple = SENSOR_SCHEMA) -> Dataset:
    """Load the measurements/statics/labels triple from one directory."""
    import os

    labels = os.path.join(path, "labels.csv")
    return load_dataset(
        os.path.join(path, "measurements.csv"),
        os.path.join(path, "statics.csv"),
        labels if os.path.exists(labels) else None,
        name=name or os.path.basename(os.path.normpath(path)),
        sensors=sensors,
    )


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
    kept = []
    for ep in ds.episodes:
        age = ep.statics[0]
        if ep.stay_hours < 0 or ep.stay_hours < MIN_STAY_HOURS or age < MIN_AGE_YEARS:
            continue
        if task == "mortality":
            if ep.stay_hours < MORTALITY_MIN_STAY_HOURS:
                continue
            t_cut = min(ep.n_hours, MORTALITY_INPUT_HOURS)
            if not _grid_criteria_ok(ep.mask[:, :t_cut]):
                continue
            out = EpisodeRecord(
                patient_id=ep.patient_id,
                values=ep.values[:, :t_cut].copy(),
                mask=ep.mask[:, :t_cut].copy(),
                hours=ep.hours[:t_cut].copy(),
                statics=ep.statics.copy(),
                stay_hours=ep.stay_hours,
                label=ep.label,
            )
        else:
            if not _grid_criteria_ok(ep.mask):
                continue
            out = ep.copy()
            out.label = None
        kept.append(out)
    return Dataset.from_episodes(ds.name, kept, sensors=ds.sensors)


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
    return EpisodeRecord(
        patient_id=ep.patient_id,
        values=standardized,
        mask=ep.mask.copy(),
        hours=ep.hours.copy(),
        statics=(ep.statics - pp.static_mean) / pp.static_std,
        stay_hours=ep.stay_hours,
        label=ep.label,
    )


def transform_all(episodes: list, pp: PreprocessorState) -> list:
    return [transform(ep, pp) for ep in episodes]


# ---------------------------------------------------------------------------
# pooling, subsampling, splits


def pool_datasets(datasets: list, prefix_ids: bool = True) -> Dataset:
    """Concatenate datasets with identical schemas into one corpus.

    Patient ids are prefixed with the source name so disjointness holds
    across sources; with prefixing disabled, overlapping raw ids are an
    error.
    """
    if not datasets:
        raise ValueError("nothing to pool")
    sensors = datasets[0].sensors
    for ds in datasets[1:]:
        if ds.sensors != sensors:
            raise SchemaError(
                f"schema mismatch: {datasets[0].name} has {len(sensors)} sensors, "
                f"{ds.name} has {len(ds.sensors)}"
            )
    episodes = []
    seen = set()
    for ds in datasets:
        for ep in ds.episodes:
            out = ep.copy()
            if prefix_ids:
                out.patient_id = f"{ds.name}/{ep.patient_id}"
            if out.patient_id in seen:
                raise ValueError(
                    f"duplicate patient id {out.patient_id!r} across pooled sources"
                )
            seen.add(out.patient_id)
            episodes.append(out)
    name = "+".join(ds.name for ds in datasets)
    return Dataset.from_episodes(name, episodes, sensors=sensors)


def subsample_preserving_prevalence(ds: Dataset, size: int, seed: int) -> Dataset:
    """Class-stratified subsample: positives = round(size * prevalence),
    at least 1; uniform without replacement within each class. A size
    that cannot be drawn raises SubsampleError."""
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
    n_pos = max(1, int(np.floor(size * prevalence + 0.5)))
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
    episodes = [ds.episodes[i].copy() for i in chosen]
    return Dataset.from_episodes(ds.name, episodes, sensors=ds.sensors)


def make_splits(ds: Dataset, seed: int, n_folds: int = 5) -> SplitPlan:
    """Stratified 80/20 test split plus an n-fold rotation over the pool.

    Falls back to unstratified splitting (with a warning) when a class is
    too small to spread over the folds.
    """
    if len(ds) < 10:
        raise ValueError(f"need at least 10 episodes to split, got {len(ds)}")
    rng = substream(seed, "splits")
    labels = ds.labels()
    ids = np.array([ep.patient_id for ep in ds.episodes])
    labeled = not (labels < 0).any()
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    stratify = labeled and min(n_pos, n_neg) >= 2 * n_folds
    if labeled and not stratify:
        logger.warning("too few samples in a class to stratify (%d pos / %d neg); "
                       "splitting unstratified", n_pos, n_neg)
    groups = ([np.nonzero(labels == 1)[0], np.nonzero(labels == 0)[0]]
              if stratify else [np.arange(len(ds))])

    test_parts = []
    pool_order = []
    for group in groups:
        perm = group[rng.permutation(len(group))]
        n_test = int(round(0.2 * len(perm)))
        test_parts.append(perm[:n_test])
        pool_order.append(perm[n_test:])
    # round-robin over the class-ordered pool keeps fold sizes equal and
    # each class spread within one element of even
    pool = np.concatenate(pool_order)
    fold_ids = [ids[pool[k::n_folds]].tolist() for k in range(n_folds)]
    test_ids = ids[np.concatenate(test_parts)].tolist()
    folds = []
    for k in range(n_folds):
        val = fold_ids[k]
        train = [pid for j in range(n_folds) if j != k for pid in fold_ids[j]]
        folds.append((train, val))
    return SplitPlan(test_ids=test_ids, folds=folds)


def select_episodes(ds: Dataset, ids) -> list:
    wanted = set(ids)
    return [ep for ep in ds.episodes if ep.patient_id in wanted]


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


def generate_synthetic(n: int, prevalence: float, mean_stay_hours: float = 48.0,
                       sparsity: float = 0.5, seed: int = 0,
                       n_sensors: int = len(SENSOR_SCHEMA),
                       availability_profile: int = 0,
                       name: str | None = None) -> Dataset:
    """Generate a labeled synthetic cohort with the reference schema.

    The mortality label is the indicator that mean latent severity over
    the final 6 hours exceeds a threshold calibrated to the requested
    prevalence (error if the achievable prevalence misses by > 1%).
    sparsity 0 observes every cell; higher values thin the per-sensor
    observation rates, labs much more aggressively than vitals.
    """
    if not 0 < prevalence < 1:
        raise ValueError(f"prevalence must be in (0, 1), got {prevalence}")
    if not 0 <= sparsity < 1:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    if not 1 <= n_sensors <= len(SENSOR_SCHEMA):
        raise ValueError(f"n_sensors must be in [1, {len(SENSOR_SCHEMA)}]")
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
        stay = int(np.clip(rng.gamma(6.0, mean_stay_hours / 6.0), 31, 14 * 24))
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
            hours=np.arange(t_len, dtype=np.float64),
            statics=np.array([age, female, height, weight]),
            stay_hours=float(stay),
            label=0,
        ))

    k = int(np.floor(prevalence * n + 0.5))
    if k < 1 or abs(k / n - prevalence) > 0.01:
        raise CalibrationError(
            f"cannot calibrate prevalence {prevalence} with n={n} "
            f"(closest achievable {k / n:.4f})"
        )
    top = np.argsort(-severity_scores, kind="mergesort")[:k]
    for i in top:
        episodes[i].label = 1
    return Dataset.from_episodes(name, episodes, sensors=SENSOR_SCHEMA[:n_sensors])
