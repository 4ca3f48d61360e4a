"""The bi-axial transformer (BAT) and the temporal baseline.

Both archs share the trunk layer and the classifier head (pool, statics
fusion, sigmoid). A trunk layer runs its attention branches in parallel
inside one pre-LN residual block, then a feedforward sublayer. The BAT
embeds (value, observed-flag, sensor identity, time encoding) per cell of
a (B, D, T, E) grid and attends along time and along sensors; its forecast
head pools each sensor over time and maps it to H hours. The baseline is
a one-branch trunk over a (B, 1, T, E) grid, one embedding per hour.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from biaxial import autodiff as ad
from biaxial.autodiff import Tensor

FFN_WIDTH_FACTOR = 4
TIME_ENCODING_BASE = 10_000.0
ATTN_MASK_FILL = -1e9


@dataclass
class BatConfig:
    """Model shape and regularization; the defaults are the reference setup
    (the paper's tuned dropout rates included), which the [model] config
    section reads off these fields in this order."""
    sensors_count: int = 48          # D
    value_embed_size: int = 128      # E
    layers: int = 2
    heads: int = 1
    dropout: float = 0.364
    attn_dropout: float = 0.207
    pooling: str = "max"
    use_mask: bool = False
    forecast_horizon: int = 2        # H
    static_count: int = 4            # S = len(data.STATIC_SCHEMA)

    def __post_init__(self):
        if self.value_embed_size % max(self.heads, 1) != 0:
            raise ValueError("value_embed_size must be divisible by heads")
        if self.value_embed_size % 2 != 0:
            raise ValueError("value_embed_size must be even for paired time encodings")
        if self.pooling not in ("max", "mean"):
            raise ValueError(f"pooling must be 'max' or 'mean', got {self.pooling!r}")
        if not (0 <= self.dropout < 1 and 0 <= self.attn_dropout < 1):
            raise ValueError("dropout rates must be in [0, 1)")
        if self.layers < 0 or min(self.heads, self.sensors_count,
                                   self.forecast_horizon) < 1:
            raise ValueError("invalid layer/head/sensor counts or forecast horizon")


def time_encoding(hours: np.ndarray, embed_size: int) -> np.ndarray:
    """Sinusoidal encoding of raw hour values with E/2 geometric frequencies."""
    hours = np.asarray(hours, dtype=np.float64)
    half = embed_size // 2
    freqs = TIME_ENCODING_BASE ** (-np.arange(half) * 2.0 / embed_size)
    angles = hours[:, None] * freqs[None, :]
    enc = np.empty((len(hours), embed_size))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple | None = None) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape or (fan_in, fan_out))


def _attention(x: Tensor, p: dict, prefix: str, axis: int, heads: int,
               attn_dropout: float, rng, train: bool,
               key_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head self-attention along `axis` (1 or 2) of a 4-D input.

    x is (B, N1, N2, E): attention runs over `axis` independently for
    each index of the other middle axis, with weights shared across them;
    the output keeps the input layout. key_mask (B, N_axis), when given,
    blanks out the masked key positions.
    """
    q = ad.affine(x, p[f"{prefix}/wq"], p[f"{prefix}/bq"])
    k = ad.affine(x, p[f"{prefix}/wk"], p[f"{prefix}/bk"])
    v = ad.affine(x, p[f"{prefix}/wv"], p[f"{prefix}/bv"])
    key_bias = None if key_mask is None else np.where(key_mask, 0.0, ATTN_MASK_FILL)
    ctx = ad._attention_core(q, k, v, heads, axis, key_bias, attn_dropout, rng, train)
    return ad.affine(ctx, p[f"{prefix}/wo"], p[f"{prefix}/bo"])


def _ffn(x: Tensor, p: dict, prefix: str) -> Tensor:
    h = ad.gelu(ad.affine(x, p[f"{prefix}/w1"], p[f"{prefix}/b1"]))
    return ad.affine(h, p[f"{prefix}/w2"], p[f"{prefix}/b2"])


class _ParamModel:
    """A named parameter set and the trunk and classifier both archs share.

    Subclasses draw their initial arrays, by name, in `_init_arrays(cfg,
    rng)`, embed their input as a (B, N, T, E) grid in `embed`, and list a
    trunk layer's attention branches as (parameter block, grid axis) in
    `BRANCHES`. With `MASK_KEYS`, `use_mask` gives them key masks. Every
    parameter starts out requiring a gradient; that flag alone decides
    whether training updates it.
    """

    BRANCHES: tuple[tuple[str, int], ...]
    MASK_KEYS = False

    def __init__(self, cfg: BatConfig, params: dict[str, Tensor]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: BatConfig, rng: np.random.Generator):
        return cls.from_arrays(cfg, cls._init_arrays(cfg, rng))

    @classmethod
    def from_arrays(cls, cfg: BatConfig, arrays: dict):
        return cls(cfg, {n: Tensor(np.array(a), requires_grad=True)
                         for n, a in arrays.items()})

    @classmethod
    def _trunk_arrays(cls, cfg: BatConfig, rng: np.random.Generator) -> dict:
        """Initial arrays of each trunk layer: each branch's attention block,
        two layer norms and the FFN, drawn from `rng` in this order."""
        e = cfg.value_embed_size
        w, p = e * FFN_WIDTH_FACTOR, {}
        for layer in range(cfg.layers):
            for branch, _ in cls.BRANCHES:
                base = f"layer{layer}/{branch}"
                for mat in ("wq", "wk", "wv", "wo"):
                    p[f"{base}/{mat}"] = _xavier(rng, e, e)
                for vec in ("bq", "bk", "bv", "bo"):
                    p[f"{base}/{vec}"] = np.zeros(e)
            for norm in ("norm1", "norm2"):
                p[f"layer{layer}/{norm}/gain"] = np.ones(e)
                p[f"layer{layer}/{norm}/bias"] = np.zeros(e)
            p[f"layer{layer}/ffn/w1"] = _xavier(rng, e, w)
            p[f"layer{layer}/ffn/b1"] = np.zeros(w)
            p[f"layer{layer}/ffn/w2"] = _xavier(rng, w, e)
            p[f"layer{layer}/ffn/b2"] = np.zeros(e)
        return p

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def _pool(self, x: Tensor, axis: int) -> Tensor:
        if self.cfg.pooling == "max":
            return ad.max_reduce(x, axis)
        return ad.mean_reduce(x, axis)

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}/gain"],
                             self.params[f"{prefix}/bias"])

    # -- forward passes ------------------------------------------------

    def _layer(self, x: Tensor, layer: int, mask: np.ndarray | None,
               train: bool, rng) -> Tensor:
        """x + the sum of dropout(branch attention over norm1(x)), then
        x + dropout(ffn(norm2(x))). Every branch attends before the first
        dropout draw; a branch along grid axis a takes mask.any(axis=3 - a)
        as its key mask."""
        cfg = self.cfg
        normed = self._norm(x, f"layer{layer}/norm1")
        attended = [_attention(normed, self.params, f"layer{layer}/{branch}", axis,
                               cfg.heads, cfg.attn_dropout, rng, train,
                               key_mask=None if mask is None else mask.any(axis=3 - axis))
                    for branch, axis in self.BRANCHES]
        dropped = [ad.dropout(a, cfg.dropout, rng, train) for a in attended]
        x = ad.add(x, functools.reduce(ad.add, dropped))
        ffn_out = _ffn(self._norm(x, f"layer{layer}/norm2"), self.params,
                       f"layer{layer}/ffn")
        return ad.add(x, ad.dropout(ffn_out, cfg.dropout, rng, train))

    def trunk(self, values: np.ndarray, mask: np.ndarray, hours: np.ndarray,
              train: bool = False, rng=None) -> Tensor:
        x = self.embed(values, mask, hours)
        key_mask = mask if self.MASK_KEYS and self.cfg.use_mask else None
        for layer in range(self.cfg.layers):
            x = self._layer(x, layer, key_mask, train, rng)
        return x

    def pool_and_fuse(self, x: Tensor, statics: np.ndarray) -> Tensor:
        """Reduce over sensors and time, then append the static features."""
        pooled = self._pool(self._pool(x, 1), 1)
        return ad.concat([pooled, ad.tensor(statics)], axis=1)

    def classify(self, values, mask, hours, statics,
                 train: bool = False, rng=None) -> Tensor:
        """Mortality probability per batch element, in (0, 1)."""
        x = self.trunk(values, mask, hours, train=train, rng=rng)
        fused = self.pool_and_fuse(x, statics)
        logits = ad.affine(fused, self.params["head_cls/w"], self.params["head_cls/b"])
        return ad.sigmoid(ad.reshape(logits, (values.shape[0],)))


class BatModel(_ParamModel):
    """Parameter set plus forward passes for the bi-axial transformer."""

    BRANCHES = (("time_attn", 2), ("feat_attn", 1))
    MASK_KEYS = True

    # Kept in the class body: bench/probes.py times and scopes these by
    # patching each model class's own __dict__.
    zero_grad = _ParamModel.zero_grad
    classify = _ParamModel.classify
    _layer = _ParamModel._layer
    pool_and_fuse = _ParamModel.pool_and_fuse

    @classmethod
    def _init_arrays(cls, cfg: BatConfig, rng: np.random.Generator) -> dict:
        d, e, s = cfg.sensors_count, cfg.value_embed_size, cfg.static_count
        p: dict[str, np.ndarray] = {
            "embed/value_w": rng.normal(0.0, 0.5, e),
            "embed/value_b": np.zeros(e),
            "embed/missing": rng.normal(0.0, 0.2, (d, e)),
            "embed/identity": rng.normal(0.0, 0.2, (d, e)),
        }
        p.update(cls._trunk_arrays(cfg, rng))
        p["head_cls/w"] = _xavier(rng, e + s, 1)
        p["head_cls/b"] = np.zeros(1)
        p["head_for/w"] = _xavier(rng, e, cfg.forecast_horizon,
                                  (e, cfg.forecast_horizon))
        p["head_for/b"] = np.zeros(cfg.forecast_horizon)
        return p

    def embed(self, values: np.ndarray, mask: np.ndarray,
              hours: np.ndarray) -> Tensor:
        """(B, D, T) values and mask to a (B, D, T, E) embedded grid.

        Observed cells project their value; unobserved cells take the
        per-sensor missing token instead, so the values buffer cannot
        influence them. Identity and time encodings are always added.
        """
        b, d, t = values.shape
        if t == 0:
            raise ValueError("cannot embed an episode with zero time steps")
        if d != self.cfg.sensors_count:
            raise ValueError(
                f"expected {self.cfg.sensors_count} sensors, got {d}")
        e = self.cfg.value_embed_size
        vals = ad.tensor(values.reshape(b, d, t, 1))
        m = ad.tensor(mask.astype(np.float64).reshape(b, d, t, 1))
        inv_m = ad.tensor((1.0 - mask.astype(np.float64)).reshape(b, d, t, 1))
        proj = ad.add(ad.mul(vals, self.params["embed/value_w"]),
                      self.params["embed/value_b"])
        missing = ad.reshape(self.params["embed/missing"], (1, d, 1, e))
        ident = ad.reshape(self.params["embed/identity"], (1, d, 1, e))
        enc = ad.tensor(time_encoding(hours, e).reshape(1, 1, t, e))
        gated = ad.add(ad.mul(proj, m), ad.mul(missing, inv_m))
        return ad.add(ad.add(gated, ident), enc)

    def forecast(self, values, mask, hours, statics=None,
                 train: bool = False, rng=None) -> Tensor:
        """Standardized-scale forecast grid (B, D, H) for the next H hours.

        Per-sensor temporal pooling keeps sensors separate; the linear map
        to the horizon is shared across sensors (identity embeddings
        already make them distinguishable).
        """
        x = self.trunk(values, mask, hours, train=train, rng=rng)
        pooled = self._pool(x, 2)     # (B, D, E)
        return ad.affine(pooled, self.params["head_for/w"], self.params["head_for/b"])


class TemporalTransformer(_ParamModel):
    """Temporal transformer over forward-filled, mean-imputed values; it
    never reads the mask."""

    BRANCHES = (("attn", 2),)

    # Kept in the class body: bench/probes.py times these by patching
    # each model class's own __dict__.
    zero_grad = _ParamModel.zero_grad
    classify = _ParamModel.classify

    @classmethod
    def _init_arrays(cls, cfg: BatConfig, rng: np.random.Generator) -> dict:
        d, e, s = cfg.sensors_count, cfg.value_embed_size, cfg.static_count
        p: dict[str, np.ndarray] = {
            "embed/w": _xavier(rng, d, e),
            "embed/b": np.zeros(e),
        }
        p.update(cls._trunk_arrays(cfg, rng))
        p["head_cls/w"] = _xavier(rng, e + s, 1)
        p["head_cls/b"] = np.zeros(1)
        return p

    def embed(self, values: np.ndarray, mask: np.ndarray,
              hours: np.ndarray) -> Tensor:
        """(B, D, T) values to a (B, 1, T, E) grid: one affine map of each
        hour's D-vector plus the time encoding; `mask` is ignored."""
        del mask
        t, e = values.shape[2], self.cfg.value_embed_size
        x = ad.affine(ad.tensor(values.transpose(0, 2, 1)[:, None]),
                      self.params["embed/w"], self.params["embed/b"])
        return ad.add(x, ad.tensor(time_encoding(hours, e).reshape(1, 1, t, e)))


# checkpoint `meta["arch"]` and `finetune(arch=...)` name -> model class
ARCHS = {"bat": BatModel, "transformer": TemporalTransformer}
