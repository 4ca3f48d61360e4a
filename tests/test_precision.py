"""The precision policy: float32 training and inference, float64 oracle.

Every op must compute in the dtype of its inputs, so that a float32 graph
stays float32 forward and backward; the training entry points run in
`training.COMPUTE_DTYPE` and must agree with the same run at float64.
"""

import numpy as np
import pytest

from biaxial import autodiff as ad
from biaxial import data as dt
from biaxial import training as tr
from biaxial.model import BatModel
from biaxial.rng import substream
from biaxial.sampler import SamplerConfig

from test_training import tiny_model_cfg, tiny_train_cfg

DTYPES = (np.float32, np.float64)


def _attention(q, k, v):
    key_bias = np.zeros((2, 6))
    key_bias[:, 0] = -1e9
    return ad._attention_core(q, k, v, 2, 2, key_bias, 0.3,
                              np.random.default_rng(0), True)


# name -> (input shapes, op); one entry per public primitive, plus the
# fused attention core
PRIMITIVES = {
    "add": ([(3, 4), (4,)], ad.add),
    "sub": ([(3, 4), (3, 1)], ad.sub),
    "mul": ([(3, 4), (4,)], ad.mul),
    "matmul": ([(2, 3, 4), (4, 5)], ad.matmul),
    "matmul_stacked": ([(2, 3, 4), (2, 4, 5)], ad.matmul),
    "affine": ([(2, 3, 4), (4, 5), (5,)], ad.affine),
    "reshape": ([(3, 4)], lambda x: ad.reshape(x, (2, 6))),
    "transpose": ([(2, 3, 4)], lambda x: ad.transpose(x, (2, 0, 1))),
    "concat": ([(2, 3), (2, 2)], lambda a, b: ad.concat([a, b], axis=1)),
    "sum_reduce": ([(3, 4)], ad.sum_reduce),
    "mean_reduce": ([(3, 4)], lambda x: ad.mean_reduce(x, axis=0)),
    "max_reduce": ([(3, 4)], lambda x: ad.max_reduce(x, axis=1)),
    "log": ([(3, 4)], ad.log),
    "sigmoid": ([(3, 4)], ad.sigmoid),
    "relu": ([(3, 4)], ad.relu),
    "gelu": ([(3, 4)], ad.gelu),
    "softmax": ([(3, 4)], lambda x: ad.softmax(x, axis=-1)),
    "layer_norm": ([(3, 4), (4,), (4,)], lambda x, g, b: ad.layer_norm(x, g, b)),
    "dropout": ([(3, 4)], lambda x: ad.dropout(x, 0.5, np.random.default_rng(0), True)),
    "_attention_core": ([(2, 3, 6, 4)] * 3, _attention),
}


def test_every_public_primitive_is_covered():
    not_ops = {"Tensor", "GradientTape", "tensor", "backward", "grad_check",
               "GradCheckReport"}
    assert set(ad.__all__) - not_ops <= set(PRIMITIVES)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_keeps_its_input_dtype(name, dtype):
    shapes, op = PRIMITIVES[name]
    rng = np.random.default_rng(3)
    with ad.compute_dtype(dtype):
        inputs = [ad.tensor(rng.uniform(0.5, 1.5, s), requires_grad=True) for s in shapes]
        out = op(*inputs)
        assert out.data.dtype == dtype
        ad.backward(ad.sum_reduce(ad.mul(out, ad.tensor(rng.standard_normal(out.shape)))))
    for x in inputs:
        assert x.data.dtype == dtype and x.grad.dtype == dtype


def test_mixing_dtypes_in_one_op_raises():
    w = ad.tensor(np.ones(3), requires_grad=True)
    with ad.compute_dtype(np.float32):
        x = ad.tensor(np.ones(3))
        assert x.data.dtype == np.float32
        with pytest.raises(TypeError, match="mul computed in float64"):
            ad.mul(w, x)


def test_compute_dtype_is_validated_and_restored():
    with pytest.raises(ValueError, match="float32 or float64"):
        with ad.compute_dtype(np.float16):
            pass
    with pytest.raises(KeyError):
        with ad.compute_dtype(np.float32):
            raise KeyError("x")
    assert ad.tensor([1.0]).data.dtype == np.float64


def _floating_arrays_on_tape(loss):
    """dtypes of every floating array a recorded node holds: its output and
    the arrays its backward closure captured."""
    found = set()
    for node in ad.GradientTape.from_root(loss).nodes:
        arrays = [node.data]
        for cell in getattr(node._grad_fn, "__closure__", None) or ():
            try:
                arrays.append(cell.cell_contents)
            except ValueError:
                continue
        found |= {a.dtype for a in arrays
                  if isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.floating)}
    return found


@pytest.fixture(scope="module")
def small_mortality():
    ds = dt.generate_synthetic(120, prevalence=0.25, mean_stay_hours=40,
                               sparsity=0.5, seed=7, n_sensors=6)
    return dt.apply_exclusions(ds, "mortality")


def test_finetune_step_records_only_float32(small_mortality, monkeypatch):
    tape_dtypes, moment_dtypes = set(), set()
    orig_backward, orig_step = tr.backward, tr.AdamW.step

    def recording_backward(loss):
        tape_dtypes.update(_floating_arrays_on_tape(loss))
        orig_backward(loss)

    def recording_step(opt, lr=None):
        orig_step(opt, lr)
        moment_dtypes.update(a.dtype for a in [*opt.m.values(), *opt.v.values()])

    monkeypatch.setattr(tr, "backward", recording_backward)
    monkeypatch.setattr(tr.AdamW, "step", recording_step)
    result = tr.finetune(None, small_mortality, "scratch",
                         tiny_train_cfg(epochs=1, batch_size=256),
                         model_cfg=tiny_model_cfg())
    assert tape_dtypes == {np.dtype(np.float32)}
    assert moment_dtypes == {np.dtype(np.float32)}
    assert {a.dtype for a in result.params.values()} == {np.dtype(np.float32)}


def test_predict_probs_casts_a_float64_model(small_mortality):
    model = BatModel.init(tiny_model_cfg(), substream(0, "init"))
    assert model.params["embed/value_w"].data.dtype == np.float64
    pp = dt.fit_preprocessor(small_mortality.episodes)
    probs = tr.predict_probs(model, dt.transform_all(small_mortality.episodes, pp))
    assert probs.dtype == np.float32 and probs.shape == (len(small_mortality),)
    assert model.params["embed/value_w"].data.dtype == np.float64


# float32 against float64 runs of the same seed. Over seeds 0-9 of these
# configurations the AUCs were identical and the final losses differed by
# at most 3.9e-7 relative; the bounds leave a wide margin over that.
AUC_BOUND = 0.01
LOSS_REL_BOUND = 1e-5


def _at_dtype(monkeypatch, dtype, run):
    monkeypatch.setattr(tr, "COMPUTE_DTYPE", dtype)
    return run()


def test_finetune_float32_matches_float64(monkeypatch):
    ds = dt.apply_exclusions(dt.generate_synthetic(240, prevalence=0.25, mean_stay_hours=40,
                                                   sparsity=0.5, seed=100, n_sensors=6),
                             "mortality")
    pool, test = dt.split_test(ds, seed=0)
    run = lambda: tr.finetune(None, pool, "scratch", tiny_train_cfg(epochs=3, seed=4),
                              model_cfg=tiny_model_cfg(), test_episodes=test)
    r64 = _at_dtype(monkeypatch, np.float64, run)
    r32 = _at_dtype(monkeypatch, np.float32, run)
    assert r64.params["head_cls/w"].dtype == np.float64
    assert r32.params["head_cls/w"].dtype == np.float32
    assert abs(r32.metrics.auc_roc - r64.metrics.auc_roc) <= AUC_BOUND
    assert abs(r32.metrics.auc_pr - r64.metrics.auc_pr) <= AUC_BOUND
    for c32, c64 in ((r32.train_curve, r64.train_curve), (r32.val_curve, r64.val_curve)):
        assert c32[-1] == pytest.approx(c64[-1], rel=LOSS_REL_BOUND)


def test_pretrain_float32_matches_float64(monkeypatch):
    a = dt.generate_synthetic(70, prevalence=0.2, mean_stay_hours=40,
                              sparsity=0.4, seed=101, n_sensors=6, name="srcA")
    b = dt.generate_synthetic(70, prevalence=0.1, mean_stay_hours=40,
                              sparsity=0.6, seed=102, n_sensors=6, name="srcB")
    pooled = dt.apply_exclusions(dt.pool_datasets([a, b]), "pretrain")
    run = lambda: tr.pretrain(pooled, tiny_model_cfg(), tiny_train_cfg(epochs=2, seed=4),
                              SamplerConfig(), n_folds=2)
    r64 = _at_dtype(monkeypatch, np.float64, run)
    r32 = _at_dtype(monkeypatch, np.float32, run)
    assert r32.selected_fold == r64.selected_fold
    for c32, c64 in ((r32.selected.train_curve, r64.selected.train_curve),
                     (r32.selected.val_curve, r64.selected.val_curve)):
        assert c32[-1] == pytest.approx(c64[-1], rel=LOSS_REL_BOUND)


class TestCheckpointPrecision:
    def test_float32_params_roundtrip_bitwise(self, tmp_path, small_mortality):
        rng = np.random.default_rng(5)
        cfg = tiny_model_cfg()
        arrays = {n: rng.standard_normal(a.shape).astype(np.float32)
                  for n, a in BatModel._init_arrays(cfg, rng).items()}
        arrays["head_for/b"] = np.array([1e-40, -3.4e38], dtype=np.float32)
        pp = dt.fit_preprocessor(small_mortality.episodes)
        tr.save_checkpoint(tmp_path / "p.bax", arrays, pp, cfg)
        loaded = tr.load_checkpoint(tmp_path / "p.bax")["params"]
        for name, arr in arrays.items():
            assert loaded[name].dtype == np.float64
            assert loaded[name].astype(np.float32).tobytes() == arr.tobytes()

    def test_float64_checkpoint_still_loads_and_finetunes(self, tmp_path, small_mortality):
        # a v1 file as float64 code writes it: values float32 cannot hold
        cfg = tiny_model_cfg()
        model = BatModel.init(cfg, substream(1, "init"))
        pp = dt.fit_preprocessor(small_mortality.episodes)
        tr.save_checkpoint(tmp_path / "old.bax", model.state_arrays(), pp, cfg)
        bundle = tr.load_checkpoint(tmp_path / "old.bax")
        assert bundle["params"]["embed/value_w"].tobytes() == \
            model.params["embed/value_w"].data.tobytes()
        assert bundle["model_cfg"] == cfg
        result = tr.finetune(bundle, small_mortality, "finetune_head",
                             tiny_train_cfg(epochs=1, learning_rate=1e-2))
        trunk = result.params["embed/value_w"]
        assert trunk.dtype == np.float32
        assert np.array_equal(trunk, model.params["embed/value_w"].data.astype(np.float32))

