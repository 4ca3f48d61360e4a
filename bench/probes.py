"""Outside-in instrumentation of the `biaxial` modules for the benchmark.

Nothing under src/ is edited. Every probe replaces a module or class
attribute at the place where its caller looks the name up, and
`Probe.close` puts every original back.

There are two levels:

- Stage probes, always on, attached to public names only, so that they
  survive refactors of the program's internals: the model forwards, the
  optimizer step, the sampler and the data functions. They read the clock
  once or twice per call and feed the end-to-end metrics. A training step
  runs from the start of a train-mode forward to the end of the optimizer
  step that follows it; a forward in eval mode is a forward-only batch.
- The op tracer, installed by `start_tracing()`: it wraps every public
  `biaxial.autodiff` primitive and replaces each recorded node's
  `_grad_fn` with a timed wrapper, so forward and backward self time and
  call counts are known per op. Nodes are tagged with the model component
  (embed, time/feature attention, FFN, layer norm, residual, head) or the
  loss that created them. "residual" is the rest of a trunk layer: dropout,
  the residual adds and the transposes around feature attention. The
  temporal baseline's inline embedding and residual ops count as head.
  Before each backward pass it walks the tape and records its node count
  and the bytes it holds. The tracer also patches private helpers; one
  that no longer exists is skipped and listed in `unpatched`, and the
  figures it fed read 0.

A traced run gives the per-layer numbers; end-to-end numbers come from
untraced runs, because the tracer adds Python work to every op.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import metrics as mt
from biaxial import model as md
from biaxial import sampler as sp
from biaxial import training as tr

perf = time.perf_counter

# Every public autodiff callable except the tensor constructor, the tape,
# backward and the checkpoint/grad-check utilities is a primitive op.
_NOT_OPS = {"Tensor", "GradientTape", "tensor", "backward", "grad_check",
            "GradCheckReport", "save_params", "load_params"}
OPS = tuple(name for name in ad.__all__ if name not in _NOT_OPS)

COMPONENTS = ("embed", "time_attn", "feat_attn", "ffn", "layer_norm",
              "residual", "head")

_LAYER_UNITS = {"autodiff.tape_nodes": "count", "autodiff.tape_bytes": "B",
                "sampler.window_len_mean": "h", "sampler.exhausted_frac": "ratio",
                "metrics.saturated_frac": "ratio",
                "metrics.val_loss": "loss", "metrics.auc_roc": "ratio",
                "metrics.auc_pr": "ratio"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric: seconds unless it is a count or a ratio."""
    return "count" if name.endswith("_calls") else _LAYER_UNITS.get(name, "s")


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class _TimedGradFn:
    """Stands in for a node's `_grad_fn`, timing each backward call."""

    __slots__ = ("fn", "tag", "op", "probe")

    def __init__(self, fn, tag, op, probe):
        self.fn, self.tag, self.op, self.probe = fn, tag, op, probe

    def __call__(self, g):
        t0 = perf()
        self.fn(g)
        dt_s = perf() - t0
        self.probe.times[f"bwd.{self.tag}"] += dt_s
        self.probe.times[f"bwd_op.{self.op}"] += dt_s


class Probe:
    """Installs the stage probes; `start_tracing()` adds the op tracer.

    Use as a context manager, which puts every patched name back on exit;
    `reset()` clears the counters between the phases of a run.
    """

    def __init__(self):
        self.tracing = False
        self.unpatched: list[str] = []
        self._saved = []
        self._scopes = []         # open component spans: [tag, t0, child_s]
        self.reset()

    # -- bookkeeping ---------------------------------------------------

    def reset(self) -> None:
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.step_s: list[float] = []
        self.tape_nodes: list[int] = []
        self.tape_bytes: list[int] = []
        self._step = None         # (t0, batch size) of the step in progress

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def _patch(self, owner, name, make, required=True):
        attrs = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if name not in attrs and not required:
            self.unpatched.append(f"{owner.__name__}.{name}")
            return
        orig = attrs[name]
        self._saved.append((owner, name, orig))
        new = make(orig)
        if not isinstance(orig, classmethod):
            new = functools.wraps(orig)(new)
        setattr(owner, name, new)

    def _timed(self, owner, name, key, required=True):
        """Accumulate the wall time of every call under `key`."""
        def make(fn):
            def wrapper(*a, **k):
                t0 = perf()
                try:
                    return fn(*a, **k)
                finally:
                    self.times[key] += perf() - t0
            return wrapper
        self._patch(owner, name, make, required)

    # -- stage probes --------------------------------------------------

    def _install(self):
        for name, key in (("generate_synthetic", "data.generate"),
                          ("load_dataset_dir", "data.load"),
                          ("apply_exclusions", "data.exclusions"),
                          ("fit_preprocessor", "data.preprocess"),
                          ("transform_all", "data.preprocess")):
            self._timed(dt, name, key)
        self._timed(mt, "evaluate_probs", "metrics.auc")
        self._patch(sp, "sample_window", self._wrap_sample_window)
        for model_cls in (md.BatModel, md.TemporalTransformer):
            self._timed(model_cls, "zero_grad", "training.zero_grad")
            self._patch(model_cls, "classify", self._wrap_forward)
        self._patch(md.BatModel, "forecast", self._wrap_forward)
        self._patch(tr.AdamW, "step", self._wrap_optimizer_step)

    def _wrap_sample_window(self, fn):
        def wrapper(batch, cfg, rng):
            t0 = perf()
            self.counts["sampler.calls"] += 1
            try:
                split = fn(batch, cfg, rng)
            except sp.SamplerExhaustedError:
                self.counts["sampler.exhausted"] += 1
                raise
            finally:
                self.times["sampler.window"] += perf() - t0
            self.counts["sampler.window_len_sum"] += split.obs_values.shape[2]
            return split
        return wrapper

    def _wrap_forward(self, fn):
        def wrapper(model, values, *a, train=False, **k):
            t0 = perf()
            out = fn(model, values, *a, train=train, **k)
            dt_s = perf() - t0
            n = values.shape[0]
            if train:
                self._step = (t0, n)
                self.times["training.forward"] += dt_s
            else:
                self.times["eval"] += dt_s
                self.counts["eval_samples"] += n
                self.counts["eval_calls"] += 1
            if fn.__name__ == "classify":
                p = out.data
                self.counts["probs"] += p.size
                self.counts["probs_invalid"] += int(np.sum(~((p >= 0.0) & (p <= 1.0))))
                self.counts["probs_saturated"] += int(np.sum((p == 0.0) | (p == 1.0)))
            return out
        return wrapper

    def _wrap_optimizer_step(self, fn):
        def wrapper(opt, lr=None):
            t0 = perf()
            fn(opt, lr)
            t1 = perf()
            self.times["training.optimizer"] += t1 - t0
            if self._step is not None:
                start, n = self._step
                self.step_s.append(t1 - start)
                self.counts["train_samples"] += n
                self._step = None
        return wrapper

    # -- op tracer -----------------------------------------------------

    def start_tracing(self) -> None:
        """Install the op tracer; it records until the probe is closed."""
        for op in OPS:
            self._patch(ad, op, functools.partial(self._wrap_op, op=op))
        self._from_root = ad.GradientTape.from_root
        self._patch(ad.GradientTape, "from_root", self._wrap_from_root)
        # training.py binds `backward` at import, so patch it there
        self._patch(tr, "backward", self._wrap_backward, required=False)
        self._timed(tr, "_eval_bce", "training.val", required=False)
        self._timed(tr, "predict_probs", "training.predict", required=False)
        self._patch(tr, "_forecast_loss_on_split", self._wrap_forecast_loss, required=False)
        self._timed(tr, "_run_cell", "training.cell", required=False)
        scopes = [
            (md.BatModel, "embed", lambda a, k: "embed"),
            (md, "_attention", lambda a, k: "feat_attn" if "feat_attn" in a[2] else "time_attn"),
            (md, "_ffn", lambda a, k: "ffn"),
            (md.BatModel, "_layer", lambda a, k: "residual"),
            (md.BatModel, "pool_and_fuse", lambda a, k: "head"),
            (md.BatModel, "classify", lambda a, k: "head"),
            (md.BatModel, "forecast", lambda a, k: "head"),
            (md.TemporalTransformer, "classify", lambda a, k: "head"),
            (mt, "weighted_bce", lambda a, k: "loss"),
            (mt, "masked_forecast_loss", lambda a, k: "loss"),
        ]
        for owner, name, tag_of in scopes:
            self._patch(owner, name, functools.partial(self._wrap_scope, tag_of=tag_of),
                        required=False)
        self.tracing = True

    def _wrap_backward(self, fn):
        def wrapper(loss):
            self._account_tape(loss)
            t0 = perf()
            fn(loss)
            self.times["autodiff.backward"] += perf() - t0
        return wrapper

    def _wrap_forecast_loss(self, fn):
        def wrapper(model, split, train=False, rng=None):
            t0 = perf()
            out = fn(model, split, train=train, rng=rng)
            if not train:
                self.times["training.val"] += perf() - t0
            return out
        return wrapper

    def _wrap_from_root(self, orig):
        probe = self

        def from_root(cls, root):
            t0 = perf()
            try:
                return orig.__func__(cls, root)
            finally:
                probe.times["autodiff.tape_build"] += perf() - t0
        return classmethod(from_root)

    def _wrap_scope(self, fn, tag_of):
        """A component span: its self time (time not spent in ops or in
        nested spans) is charged to the component."""
        def wrapper(*a, **k):
            tag = tag_of(a, k)
            frame = [tag, perf(), 0.0]
            self._scopes.append(frame)
            try:
                return fn(*a, **k)
            finally:
                self._scopes.pop()
                elapsed = perf() - frame[1]
                self.times[f"fwd.{tag}"] += elapsed - frame[2]
                if self._scopes:
                    self._scopes[-1][2] += elapsed
        return wrapper

    def _wrap_op(self, fn, op):
        def wrapper(*a, **k):
            t0 = perf()
            out = fn(*a, **k)
            elapsed = perf() - t0
            if op == "layer_norm":
                tag = "layer_norm"
            else:
                tag = self._scopes[-1][0] if self._scopes else "other"
            self.times[f"fwd.{tag}"] += elapsed
            self.times[f"fwd_op.{op}"] += elapsed
            self.counts[f"calls.{op}"] += 1
            if self._scopes:
                self._scopes[-1][2] += elapsed
            # dropout in eval mode hands back its input: not a new node
            if (out._grad_fn is not None and not isinstance(out._grad_fn, _TimedGradFn)
                    and all(out is not x for x in a)):
                out._grad_fn = _TimedGradFn(out._grad_fn, tag, op, self)
            return out
        return wrapper

    def _account_tape(self, loss) -> None:
        """Count the recorded nodes below `loss` and the distinct array
        buffers they keep alive (outputs and arrays captured by their
        backward closures), excluding the parameters themselves."""
        tape = self._from_root(loss)
        params = {id(_base(n.data)) for n in tape.nodes
                  if n._grad_fn is None and n.requires_grad}
        seen = set(params)
        nodes = total = 0
        for node in tape.nodes:
            arrays = []
            if not (node._grad_fn is None and node.requires_grad):
                arrays.append(node.data)
            fn = node._grad_fn
            if fn is not None:
                nodes += 1
                fn = fn.fn if isinstance(fn, _TimedGradFn) else fn
                for cell in fn.__closure__ or ():
                    try:
                        value = cell.cell_contents
                    except ValueError:    # a closure variable never assigned
                        continue
                    if isinstance(value, np.ndarray):
                        arrays.append(value)
            for arr in arrays:
                base = _base(arr)
                if id(base) not in seen:
                    seen.add(id(base))
                    total += base.nbytes
        self.tape_nodes.append(nodes)
        self.tape_bytes.append(total)

    # -- summaries -----------------------------------------------------

    def end_to_end(self) -> dict:
        """Step and forward-only throughput figures of the measured phase."""
        steps = self.step_s
        return {
            "step_s_p50": statistics.median(steps) if steps else float("nan"),
            "train_samples_per_s": (self.counts["train_samples"] / sum(steps)
                                    if steps else float("nan")),
            "eval_samples_per_s": (self.counts["eval_samples"] / self.times["eval"]
                                   if self.counts["eval_samples"] else float("nan")),
        }

    def per_layer(self, units: int) -> dict:
        """Per-layer figures; times are seconds per workload unit."""
        t, c = self.times, self.counts
        per = 1.0 / max(units, 1)
        out = {}
        for comp in COMPONENTS:
            out[f"model.{comp}_fwd_s"] = t[f"fwd.{comp}"] * per
            out[f"model.{comp}_bwd_s"] = t[f"bwd.{comp}"] * per
        out["metrics.loss_fwd_s"] = t["fwd.loss"] * per
        out["metrics.loss_bwd_s"] = t["bwd.loss"] * per
        out["metrics.auc_s"] = t["metrics.auc"] * per
        out["metrics.saturated_frac"] = c["probs_saturated"] / c["probs"] if c["probs"] else 0.0
        for op in OPS:
            out[f"autodiff.fwd.{op}_s"] = t[f"fwd_op.{op}"] * per
            out[f"autodiff.bwd.{op}_s"] = t[f"bwd_op.{op}"] * per
            out[f"autodiff.fwd.{op}_calls"] = c[f"calls.{op}"] * per
        out["autodiff.tape_nodes"] = max(self.tape_nodes, default=0)
        out["autodiff.tape_bytes"] = max(self.tape_bytes, default=0)
        out["autodiff.backward_s"] = t["autodiff.backward"] * per
        out["autodiff.tape_build_s"] = t["autodiff.tape_build"] * per
        for key in ("optimizer", "zero_grad", "forward", "val", "predict", "cell"):
            out[f"training.{key}_s"] = t[f"training.{key}"] * per
        out["training.step_s"] = sum(self.step_s) * per
        out["sampler.window_s"] = t["sampler.window"] * per
        windows = c["sampler.calls"] - c["sampler.exhausted"]
        out["sampler.window_len_mean"] = c["sampler.window_len_sum"] / windows if windows else 0.0
        out["sampler.exhausted_frac"] = (c["sampler.exhausted"] / c["sampler.calls"]
                                         if c["sampler.calls"] else 0.0)
        for key in ("generate", "load", "exclusions", "preprocess"):
            out[f"data.{key}_s"] = t[f"data.{key}"] * per
        for key in ("generate", "pretrain", "finetune", "evaluate"):
            out[f"cli.{key}_s"] = t[f"cli.{key}"] * per
        return out
