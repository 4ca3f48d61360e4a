"""The bi-axial transformer and the mean-imputed temporal baseline.

Input cells are embedded from (value, observed-flag, sensor identity,
continuous-time encoding); each trunk layer runs self-attention along the
time axis (independently per sensor) and along the sensor axis
(independently per time step) in parallel inside one residual block,
followed by a feedforward sublayer. Two heads share the trunk: a global
pool + statics fusion + sigmoid classifier, and a per-sensor temporal
pool + linear map emitting a D x H forecast grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from biaxial import autodiff as ad
from biaxial.autodiff import Tensor

FFN_WIDTH_FACTOR = 4
TIME_ENCODING_BASE = 10_000.0
ATTN_MASK_FILL = -1e9


@dataclass
class BatConfig:
    sensors_count: int = 48          # D
    value_embed_size: int = 128      # E
    layers: int = 2
    heads: int = 1
    dropout: float = 0.0
    attn_dropout: float = 0.0
    pooling: str = "max"
    static_count: int = 4            # S
    forecast_horizon: int = 2        # H
    use_mask: bool = False

    def __post_init__(self):
        if self.value_embed_size % max(self.heads, 1) != 0:
            raise ValueError("value_embed_size must be divisible by heads")
        if self.value_embed_size % 2 != 0:
            raise ValueError("value_embed_size must be even for paired time encodings")
        if self.pooling not in ("max", "mean"):
            raise ValueError(f"pooling must be 'max' or 'mean', got {self.pooling!r}")
        if not (0 <= self.dropout < 1 and 0 <= self.attn_dropout < 1):
            raise ValueError("dropout rates must be in [0, 1)")
        if self.layers < 0 or self.heads < 1 or self.sensors_count < 1:
            raise ValueError("invalid layer/head/sensor counts")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BatConfig":
        return cls(**d)


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


def _attention(x: Tensor, p: dict, prefix: str, heads: int,
               attn_dropout: float, rng, train: bool,
               key_mask: np.ndarray | None = None, axis: int = -2) -> Tensor:
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


def _layer_arrays(rng: np.random.Generator, layer: int, e: int,
                  attentions: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Initial arrays of one pre-LN trunk layer: each named attention
    block, two layer norms and the FFN, drawn from `rng` in this order."""
    p = {}
    for branch in attentions:
        base = f"layer{layer}/{branch}"
        for mat in ("wq", "wk", "wv", "wo"):
            p[f"{base}/{mat}"] = _xavier(rng, e, e)
        for vec in ("bq", "bk", "bv", "bo"):
            p[f"{base}/{vec}"] = np.zeros(e)
    for norm in ("norm1", "norm2"):
        p[f"layer{layer}/{norm}/gain"] = np.ones(e)
        p[f"layer{layer}/{norm}/bias"] = np.zeros(e)
    w = e * FFN_WIDTH_FACTOR
    p[f"layer{layer}/ffn/w1"] = _xavier(rng, e, w)
    p[f"layer{layer}/ffn/b1"] = np.zeros(w)
    p[f"layer{layer}/ffn/w2"] = _xavier(rng, w, e)
    p[f"layer{layer}/ffn/b2"] = np.zeros(e)
    return p


class _ParamModel:
    """A named parameter set plus the plumbing both model classes share.

    Subclasses draw their initial arrays, by name, in the classmethod
    `_init_arrays(cfg, rng)`, and map the name prefix of each head's
    parameters to its group in `HEADS`; every other parameter is trunk.
    """

    HEADS: dict[str, str]

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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def param_groups(self) -> dict[str, list[str]]:
        groups = {"trunk": [], "head_cls": [], "head_for": []}
        for name in self.params:
            groups[self.HEADS.get(name.split("/", 1)[0], "trunk")].append(name)
        return groups

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def _pool(self, x: Tensor, axis: int) -> Tensor:
        if self.cfg.pooling == "max":
            return ad.max_reduce(x, axis=axis)
        return ad.mean_reduce(x, axis=axis)

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}/gain"],
                             self.params[f"{prefix}/bias"], axis=-1)

    def _ffn_sublayer(self, x: Tensor, layer: int, train: bool, rng) -> Tensor:
        """Pre-LN feedforward residual: x + dropout(ffn(norm2(x)))."""
        ffn_out = _ffn(self._norm(x, f"layer{layer}/norm2"), self.params,
                       f"layer{layer}/ffn")
        return ad.add(x, ad.dropout(ffn_out, self.cfg.dropout, rng, train))


class BatModel(_ParamModel):
    """Parameter set plus forward passes for the bi-axial transformer."""

    HEADS = {"head_cls": "head_cls", "head_for": "head_for"}

    # Kept in the class body: bench/probes.py times zero_grad by patching
    # each model class's own __dict__.
    zero_grad = _ParamModel.zero_grad

    @classmethod
    def _init_arrays(cls, cfg: BatConfig, rng: np.random.Generator) -> dict:
        d, e, s = cfg.sensors_count, cfg.value_embed_size, cfg.static_count
        p: dict[str, np.ndarray] = {
            "embed/value_w": rng.normal(0.0, 0.5, e),
            "embed/value_b": np.zeros(e),
            "embed/missing": rng.normal(0.0, 0.2, (d, e)),
            "embed/identity": rng.normal(0.0, 0.2, (d, e)),
        }
        for layer in range(cfg.layers):
            p.update(_layer_arrays(rng, layer, e, ("time_attn", "feat_attn")))
        p["head_cls/w"] = _xavier(rng, e + s, 1)
        p["head_cls/b"] = np.zeros(1)
        p["head_for/w"] = _xavier(rng, e, cfg.forecast_horizon,
                                  (e, cfg.forecast_horizon))
        p["head_for/b"] = np.zeros(cfg.forecast_horizon)
        return p

    # -- forward passes ------------------------------------------------

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

    def _layer(self, x: Tensor, layer: int, mask: np.ndarray | None,
               train: bool, rng) -> Tensor:
        cfg = self.cfg
        p = self.params
        normed = self._norm(x, f"layer{layer}/norm1")
        key_time = key_feat = None
        if cfg.use_mask and mask is not None:
            key_time = mask.any(axis=1)   # (B, T)
            key_feat = mask.any(axis=2)   # (B, D)
        a_time = _attention(normed, p, f"layer{layer}/time_attn", cfg.heads,
                            cfg.attn_dropout, rng, train, key_mask=key_time, axis=2)
        a_feat = _attention(normed, p, f"layer{layer}/feat_attn", cfg.heads,
                            cfg.attn_dropout, rng, train, key_mask=key_feat, axis=1)
        x = ad.add(x, ad.add(ad.dropout(a_time, cfg.dropout, rng, train),
                             ad.dropout(a_feat, cfg.dropout, rng, train)))
        return self._ffn_sublayer(x, layer, train, rng)

    def trunk(self, values: np.ndarray, mask: np.ndarray, hours: np.ndarray,
              train: bool = False, rng=None) -> Tensor:
        x = self.embed(values, mask, hours)
        for layer in range(self.cfg.layers):
            x = self._layer(x, layer, mask, train, rng)
        return x

    def pool_and_fuse(self, x: Tensor, statics: np.ndarray) -> Tensor:
        """Reduce over sensors and time, then append the static features."""
        pooled = self._pool(self._pool(x, axis=1), axis=1)
        return ad.concat([pooled, ad.tensor(statics)], axis=1)

    def classify(self, values, mask, hours, statics,
                 train: bool = False, rng=None) -> Tensor:
        """Mortality probability per batch element, in (0, 1)."""
        x = self.trunk(values, mask, hours, train=train, rng=rng)
        fused = self.pool_and_fuse(x, statics)
        logits = ad.affine(fused, self.params["head_cls/w"], self.params["head_cls/b"])
        return ad.sigmoid(ad.reshape(logits, (values.shape[0],)))

    def forecast(self, values, mask, hours, statics=None,
                 train: bool = False, rng=None) -> Tensor:
        """Standardized-scale forecast grid (B, D, H) for the next H hours.

        Per-sensor temporal pooling keeps sensors separate; the linear map
        to the horizon is shared across sensors (identity embeddings
        already make them distinguishable).
        """
        x = self.trunk(values, mask, hours, train=train, rng=rng)
        pooled = self._pool(x, axis=2)     # (B, D, E)
        return ad.affine(pooled, self.params["head_for/w"], self.params["head_for/b"])


class TemporalTransformer(_ParamModel):
    """Vanilla temporal transformer over mean-imputed values; no mask input."""

    HEADS = {"head": "head_cls"}

    # Kept in the class body: bench/probes.py times zero_grad by patching
    # each model class's own __dict__.
    zero_grad = _ParamModel.zero_grad

    @classmethod
    def _init_arrays(cls, cfg: BatConfig, rng: np.random.Generator) -> dict:
        d, e, s = cfg.sensors_count, cfg.value_embed_size, cfg.static_count
        p: dict[str, np.ndarray] = {
            "embed/w": _xavier(rng, d, e),
            "embed/b": np.zeros(e),
        }
        for layer in range(cfg.layers):
            p.update(_layer_arrays(rng, layer, e, ("attn",)))
        p["head/w"] = _xavier(rng, e + s, 1)
        p["head/b"] = np.zeros(1)
        return p

    def classify(self, values, mask, hours, statics,
                 train: bool = False, rng=None) -> Tensor:
        """Probability from mean-imputed values; `mask` is accepted for
        interface parity and ignored."""
        del mask
        b, d, t = values.shape
        e = self.cfg.value_embed_size
        # per-time-step linear embedding of the D-vector
        x = ad.affine(ad.tensor(values.transpose(0, 2, 1)),
                      self.params["embed/w"], self.params["embed/b"])
        x = ad.add(x, ad.tensor(time_encoding(hours, e).reshape(1, t, e)))
        x = ad.reshape(x, (b, 1, t, e))
        for layer in range(self.cfg.layers):
            att = _attention(self._norm(x, f"layer{layer}/norm1"), self.params,
                             f"layer{layer}/attn", self.cfg.heads,
                             self.cfg.attn_dropout, rng, train)
            x = ad.add(x, ad.dropout(att, self.cfg.dropout, rng, train))
            x = self._ffn_sublayer(x, layer, train, rng)
        pooled = self._pool(ad.reshape(x, (b, t, e)), axis=1)
        fused = ad.concat([pooled, ad.tensor(statics)], axis=1)
        logits = ad.affine(fused, self.params["head/w"], self.params["head/b"])
        return ad.sigmoid(ad.reshape(logits, (b,)))


# checkpoint `meta["arch"]` and `finetune(arch=...)` name -> model class
ARCHS = {"bat": BatModel, "transformer": TemporalTransformer}
