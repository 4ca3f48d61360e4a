"""Dynamic observation/forecasting window construction during batch loading.

A batch is padded to a common hour grid; one episode drawn at random
anchors the split index t1: an observed hour at least `min_obs_len` into
the stay with a full forecast horizon before its last observed hour, so
every episode must be able to anchor, as `training.pretrain` ensures. The
batch is sliced at t1: observation [t0, t1), forecast [t1, t1 + H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_MIN_OBS_LEN = 12
DEFAULT_FORECAST_HORIZON = 2


class SamplerExhaustedError(RuntimeError):
    """The drawn anchor has no valid index. Every stay in a batch must be
    able to anchor; `training.pretrain` keeps only stays that can."""


@dataclass
class SamplerConfig:
    min_obs_len: int = DEFAULT_MIN_OBS_LEN          # L
    forecast_horizon: int = DEFAULT_FORECAST_HORIZON  # H
    max_obs: int | None = None                       # None = unbounded, t0 = 0

    def __post_init__(self):
        if self.min_obs_len < 1:
            raise ValueError("min_obs_len must be >= 1")
        if self.forecast_horizon < 1:
            raise ValueError("forecast_horizon must be >= 1")
        if self.max_obs is not None and self.max_obs < 1:
            raise ValueError("max_obs must be >= 1 or None")


@dataclass
class WindowSplit:
    """One batch sliced at a split index; arrays are (B, D, len)."""
    t0: int
    t1: int
    obs_values: np.ndarray
    obs_mask: np.ndarray
    obs_hours: np.ndarray       # (t1 - t0,)
    forecast_values: np.ndarray
    forecast_mask: np.ndarray
    statics: np.ndarray         # (B, S)


def valid_indices(time_mask: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    """Split indices surviving the three filters, ascending, possibly empty.

    Filters: the hour is observed (any sensor), it is at least
    min_obs_len into the series, and it leaves a full horizon before the
    last observed hour among the remaining candidates.
    """
    time_mask = np.asarray(time_mask, dtype=bool)
    if time_mask.ndim != 1 or time_mask.size < 1:
        raise ValueError("time_mask must be a nonempty 1-D boolean array")
    valid = np.nonzero(time_mask)[0]
    valid = valid[valid >= cfg.min_obs_len]
    if valid.size == 0:
        return valid
    return valid[valid <= valid[-1] - cfg.forecast_horizon]


def collate(episodes: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a batch of episodes to the longest grid: values, mask, statics."""
    b = len(episodes)
    d = episodes[0].n_sensors
    t_max = max(ep.n_hours for ep in episodes)
    values = np.zeros((b, d, t_max))
    mask = np.zeros((b, d, t_max), dtype=bool)
    statics = np.stack([ep.statics for ep in episodes])
    for i, ep in enumerate(episodes):
        values[i, :, :ep.n_hours] = ep.values
        mask[i, :, :ep.n_hours] = ep.mask
    return values, mask, statics


def sample_window(batch: list, cfg: SamplerConfig,
                  rng: np.random.Generator) -> WindowSplit:
    """Draw a split for one batch; deterministic given the rng state.

    One anchor is drawn uniformly from the batch, then t1 uniformly from
    its valid indices. Every stay in a batch must be able to anchor, which
    `training.pretrain` guarantees; SamplerExhaustedError names one that cannot.
    """
    if not batch:
        raise ValueError("sample_window requires a nonempty batch")
    values, mask, statics = collate(batch)
    i = int(rng.integers(0, len(batch)))
    c = valid_indices(mask[i].any(axis=0), cfg)
    if not c.size:
        raise SamplerExhaustedError(f"no valid index in drawn stay {batch[i].patient_id!r}")
    t1 = int(c[rng.integers(0, c.size)])

    t0 = 0 if cfg.max_obs is None else max(0, t1 - cfg.max_obs)
    t2 = t1 + cfg.forecast_horizon
    return WindowSplit(
        t0=t0,
        t1=t1,
        obs_values=values[:, :, t0:t1],
        obs_mask=mask[:, :, t0:t1],
        obs_hours=np.arange(t0, t1, dtype=np.float64),
        forecast_values=values[:, :, t1:t2],
        forecast_mask=mask[:, :, t1:t2],
        statics=statics,
    )

