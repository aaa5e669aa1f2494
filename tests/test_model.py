"""Network blocks against straight-line numpy oracles, plus exact invariants.

Every oracle below is an independent re-derivation in plain numpy; none of
them call the package's tensor ops.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from lidsn import tensor as tz
from lidsn.config import ModelConfig
from lidsn.errors import ShapeError
from lidsn.network import (
    Model,
    ffn_block,
    gated_refine,
    integrate,
    pooled_context,
    run_layers,
    saliency,
    spatial_tokenize,
    temporal_tokenize,
    tsia_apply,
)
from lidsn.params import (
    count_params,
    count_params_flops,
    init_params,
    load_snapshot,
    param_specs,
    save_snapshot,
)
from lidsn.rng import RngStream
from lidsn.tensor import Tensor


# ---------------------------------------------------------------------------
# numpy oracles


def np_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def np_softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def np_bn_eval(x, gain, bias, mean, var, eps):
    # feature axis is 1
    shape = (1, -1) + (1,) * (x.ndim - 2)
    xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    return gain.reshape(shape) * xhat + bias.reshape(shape)


def np_layernorm(x, gain, bias, eps):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def np_avgpool(x, window, stride):
    p = (x.shape[-1] - window) // stride + 1
    return np.stack([x[..., i * stride : i * stride + window].mean(-1) for i in range(p)],
                    axis=-1)


def np_conv_same(x, w, stride):
    # x [T], w [K] odd; 'same' zero padding, window i starts at i*stride
    k = w.shape[0]
    pad = np.concatenate([np.zeros(k // 2), x, np.zeros(k // 2)])
    t_out = (x.shape[0] - 1) // stride + 1
    return np.array([(pad[i * stride : i * stride + k] * w).sum() for i in range(t_out)])


def oracle_temporal(x, vals, cfg):
    # x [C, T] -> [P, D], eval mode
    w_pw = vals["temporal_tokenizer.pointwise.weight"]
    y = w_pw @ x + vals["temporal_tokenizer.pointwise.bias"][:, None]
    y = np_bn_eval(y[None], vals["temporal_tokenizer.norm.gain"],
                   vals["temporal_tokenizer.norm.bias"],
                   vals["temporal_tokenizer.norm.running_mean"],
                   vals["temporal_tokenizer.norm.running_var"], cfg.bn_eps)[0]
    w_dw = vals["temporal_tokenizer.depthwise.weight"]
    y = np.stack([np_conv_same(y[d], w_dw[d], 1) for d in range(cfg.embed_dim)])
    y = y + vals["temporal_tokenizer.depthwise.bias"][:, None]
    y = np_gelu(y)
    y = np_avgpool(y, cfg.pool_window, cfg.pool_stride)
    return y.T


def oracle_spatial(x, vals, cfg):
    # x [C, T] -> [C, D], eval mode
    w = vals["spatial_tokenizer.conv.weight"]
    rows = []
    for c in range(cfg.n_channels):
        maps = np.stack([np_conv_same(x[c], w[s, 0], cfg.spatial_conv_stride)
                         for s in range(cfg.spatial_maps)])
        maps = maps + vals["spatial_tokenizer.conv.bias"][:, None]
        maps = np_gelu(maps)
        maps = np_bn_eval(maps[None], vals["spatial_tokenizer.norm.gain"],
                          vals["spatial_tokenizer.norm.bias"],
                          vals["spatial_tokenizer.norm.running_mean"],
                          vals["spatial_tokenizer.norm.running_var"], cfg.bn_eps)[0]
        maps = np_avgpool(maps, cfg.spatial_pool_window, cfg.spatial_pool_stride)
        rows.append(maps.reshape(-1))
    return np.stack(rows) @ vals["spatial_tokenizer.proj.weight"]


def oracle_ffn(z, vals, prefix, cfg):
    h = np_layernorm(z, vals[f"{prefix}.norm.gain"], vals[f"{prefix}.norm.bias"], cfg.ln_eps)
    h = np_gelu(h @ vals[f"{prefix}.expand.weight"] + vals[f"{prefix}.expand.bias"])
    h = h @ vals[f"{prefix}.contract.weight"] + vals[f"{prefix}.contract.bias"]
    return z + h


def oracle_sacm(z_s, vals, prefix, embed, cfg):
    # z_s [M, D] -> s_pool [H, dh], affinity [H, M, M], importance [H, M]
    wa, wb = vals[f"{prefix}.query_a"], vals[f"{prefix}.query_b"]
    pools, affs, imps = [], [], []
    for h in range(cfg.n_heads):
        y1 = z_s @ wa[h]
        y2 = z_s @ wb[h]
        if cfg.use_electrode_pos_embedding:
            e = vals[f"{prefix}.{embed}"]
            eh = e[0] if e.shape[0] == 1 else e[h]
            y1 = y1 + eh
            y2 = y2 + eh
        aff = np_softmax(y1 @ y2.T / np.sqrt(cfg.head_dim), axis=-1)
        imp = np_softmax(np.sqrt((y1 * y1).sum(-1)), axis=-1)
        ctx = aff @ y1
        pools.append((imp[:, None] * ctx).sum(0))
        affs.append(aff)
        imps.append(imp)
    return np.stack(pools), np.stack(affs), np.stack(imps)


def oracle_tcam(z_t, vals, prefix, cfg):
    # z_t [M, D] -> refined [H, M, dh], attention [H, dh, dh]
    wv, wg, wk = vals[f"{prefix}.value"], vals[f"{prefix}.gate"], vals[f"{prefix}.key"]
    m = z_t.shape[0]
    refined, atts = [], []
    for h in range(cfg.n_heads):
        x1 = z_t @ wv[h]
        if cfg.use_cosine_gate:
            x1 = x1 * np.cos(z_t @ wg[h])
        k = z_t @ wk[h]
        att = np_softmax(x1.T @ k / np.sqrt(m), axis=-1)
        refined.append(x1 @ att)
        atts.append(att)
    return np.stack(refined), np.stack(atts)


def oracle_tsia(source, target, vals, prefix, embed, cfg):
    s_pool, _, _ = oracle_sacm(source, vals, prefix, embed, cfg)
    refined, _ = oracle_tcam(target, vals, prefix, cfg)
    gated = refined * s_pool[:, None, :]                      # [H, M, dh]
    merged = np.transpose(gated, (1, 0, 2)).reshape(target.shape[0], -1)
    return merged @ vals[f"{prefix}.out.weight"]


def oracle_layers(z_t, z_s, vals, cfg):
    for layer in range(cfg.temporal_depth):
        if layer < cfg.spatial_depth:
            z_s = oracle_ffn(z_s, vals, f"layer{layer}.spatial_ffn", cfg)
        h_t = oracle_ffn(z_t, vals, f"layer{layer}.temporal_ffn", cfg)
        if not cfg.use_tsia:
            pooled = z_s.mean(0)
            spread = np.broadcast_to(pooled, (cfg.n_patches, cfg.embed_dim))
            cat = np.concatenate([h_t, spread], axis=-1)
            z_t = cat @ vals[f"layer{layer}.concat_proj.weight"]
        elif cfg.integration_mode == "st2t":
            z_t = oracle_tsia(z_s, h_t, vals, f"layer{layer}.tsia", "electrode_embedding", cfg)
        elif cfg.integration_mode == "st2s":
            z_s_new = oracle_tsia(h_t, z_s, vals, f"layer{layer}.tsia_rev", "token_embedding", cfg)
            z_t, z_s = h_t, z_s_new
        elif cfg.integration_mode == "bidir":
            z_t_new = oracle_tsia(z_s, h_t, vals, f"layer{layer}.tsia", "electrode_embedding", cfg)
            z_s_new = oracle_tsia(h_t, z_s, vals, f"layer{layer}.tsia_rev", "token_embedding", cfg)
            z_t, z_s = z_t_new, z_s_new
        else:
            z_t = h_t
    return z_t, z_s


def oracle_forward(x, vals, cfg):
    # single trial [C, T] -> logits [K], eval mode
    z_t = oracle_temporal(x, vals, cfg)
    z_s = oracle_spatial(x, vals, cfg)
    if cfg.use_positional_embedding:
        z_t = z_t + vals["position.temporal"]
        z_s = z_s + vals["position.spatial"]
    z_t, z_s = oracle_layers(z_t, z_s, vals, cfg)
    if cfg.fusion_mode == "adaptive":
        zs_vec = (vals["fusion.channel_weights"][:, None] * z_s).sum(0)
        h = np.maximum(z_t @ vals["fusion.score.hidden.weight"]
                       + vals["fusion.score.hidden.bias"], 0.0)
        scores = (h @ vals["fusion.score.out.weight"] + vals["fusion.score.out.bias"])[:, 0]
        alpha = np_softmax(scores, axis=-1)
        zt_vec = (alpha[:, None] * z_t).sum(0)
    else:
        zt_vec = z_t.mean(0)
        zs_vec = z_s.mean(0)
    u = np.concatenate([zt_vec, zs_vec])
    h = np.maximum(u @ vals["classifier.hidden.weight"] + vals["classifier.hidden.bias"], 0.0)
    return h @ vals["classifier.out.weight"] + vals["classifier.out.bias"]


def build(cfg, seed=0):
    model = Model.build(cfg, seed=seed)
    return model, model.params.value_dict()


def trial(cfg, seed=11):
    return RngStream(seed, 200).normal(0.0, 1.0, (cfg.n_channels, cfg.n_samples))


# ---------------------------------------------------------------------------
# oracle comparisons


def test_temporal_tokenizer_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    x = trial(tiny_cfg)
    got = temporal_tokenize(Tensor(x[None]), model.params, tiny_cfg, False).data[0]
    want = oracle_temporal(x, vals, tiny_cfg)
    assert got.shape == (tiny_cfg.n_patches, tiny_cfg.embed_dim)
    assert np.max(np.abs(got - want)) < 1e-12


def test_spatial_tokenizer_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    x = trial(tiny_cfg)
    got = spatial_tokenize(Tensor(x[None]), model.params, tiny_cfg, False).data[0]
    want = oracle_spatial(x, vals, tiny_cfg)
    assert got.shape == (tiny_cfg.n_channels, tiny_cfg.embed_dim)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ffn_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    z = RngStream(7, 201).normal(0, 1, (1, 4, tiny_cfg.embed_dim))
    got = ffn_block(Tensor(z), model.params, "layer0.temporal_ffn", tiny_cfg, None, False).data[0]
    want = oracle_ffn(z[0], vals, "layer0.temporal_ffn", tiny_cfg)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sacm_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    z_s = RngStream(8, 202).normal(0, 1, (1, tiny_cfg.n_channels, tiny_cfg.embed_dim))
    s_pool, aff, imp = pooled_context(Tensor(z_s), model.params, "layer0.tsia",
                                      "electrode_embedding", tiny_cfg)
    w_pool, w_aff, w_imp = oracle_sacm(z_s[0], vals, "layer0.tsia",
                                       "electrode_embedding", tiny_cfg)
    assert np.max(np.abs(s_pool.data[0] - w_pool)) < 1e-12
    assert np.max(np.abs(aff.data[0] - w_aff)) < 1e-12
    assert np.max(np.abs(imp.data[0] - w_imp)) < 1e-12


def test_tcam_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    z_t = RngStream(9, 203).normal(0, 1, (1, tiny_cfg.n_patches, tiny_cfg.embed_dim))
    refined, att = gated_refine(Tensor(z_t), model.params, "layer0.tsia", tiny_cfg)
    w_ref, w_att = oracle_tcam(z_t[0], vals, "layer0.tsia", tiny_cfg)
    assert np.max(np.abs(refined.data[0] - w_ref)) < 1e-12
    assert np.max(np.abs(att.data[0] - w_att)) < 1e-12


def test_tsia_matches_oracle(tiny_cfg):
    model, vals = build(tiny_cfg)
    r = RngStream(10, 204)
    z_s = r.normal(0, 1, (1, tiny_cfg.n_channels, tiny_cfg.embed_dim))
    z_t = r.normal(0, 1, (1, tiny_cfg.n_patches, tiny_cfg.embed_dim))
    out, _, _, _ = tsia_apply(Tensor(z_s), Tensor(z_t), model.params, "layer0.tsia",
                              "electrode_embedding", tiny_cfg)
    want = oracle_tsia(z_s[0], z_t[0], vals, "layer0.tsia", "electrode_embedding", tiny_cfg)
    assert np.max(np.abs(out.data[0] - want)) < 1e-12


@pytest.mark.parametrize("mode", ["st2t", "st2s", "bidir", "none"])
def test_full_forward_matches_oracle(tiny_cfg, mode):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "integration_mode": mode})
    model, vals = build(cfg, seed=3)
    x = trial(cfg, seed=21)
    got = model.forward(x[None]).data[0]
    want = oracle_forward(x, vals, cfg)
    assert np.max(np.abs(got - want)) < 1e-12


def test_forward_matches_oracle_mean_concat_fusion(tiny_cfg):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "fusion_mode": "mean-concat"})
    model, vals = build(cfg, seed=4)
    x = trial(cfg, seed=22)
    got = model.forward(x[None]).data[0]
    assert np.max(np.abs(got - oracle_forward(x, vals, cfg))) < 1e-12


def test_forward_matches_oracle_without_tsia(tiny_cfg):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "use_tsia": False})
    model, vals = build(cfg, seed=5)
    x = trial(cfg, seed=23)
    got = model.forward(x[None]).data[0]
    assert np.max(np.abs(got - oracle_forward(x, vals, cfg))) < 1e-12


def test_forward_matches_oracle_head_shared_embedding(tiny_cfg):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "head_shared_electrode_embedding": True})
    model, vals = build(cfg, seed=6)
    assert vals["layer0.tsia.electrode_embedding"].shape[0] == 1
    x = trial(cfg, seed=24)
    got = model.forward(x[None]).data[0]
    assert np.max(np.abs(got - oracle_forward(x, vals, cfg))) < 1e-12


def _cfg_dict(cfg):
    from dataclasses import asdict

    return asdict(cfg)


# ---------------------------------------------------------------------------
# exact invariants


def test_zero_query_and_embedding_zero_the_stream(tiny_cfg):
    """With query_a and the positional offsets zeroed, the pooled summary is
    exactly zero, and the bias-free projection propagates exact zeros."""
    model, _ = build(tiny_cfg)
    for name in ("layer0.tsia.query_a", "layer0.tsia.electrode_embedding"):
        model.params.replace(name, np.zeros_like(model.params[name].data))
    r = RngStream(12, 205)
    z_s = Tensor(r.normal(0, 1, (2, tiny_cfg.n_channels, tiny_cfg.embed_dim)))
    z_t = Tensor(r.normal(0, 1, (2, tiny_cfg.n_patches, tiny_cfg.embed_dim)))
    out, _, _, _ = tsia_apply(z_s, z_t, model.params, "layer0.tsia",
                              "electrode_embedding", tiny_cfg)
    assert np.all(out.data == 0.0)


def test_integration_is_exactly_bilinear(tiny_cfg):
    model, _ = build(tiny_cfg)
    r = RngStream(13, 206)
    h, dh = tiny_cfg.n_heads, tiny_cfg.head_dim
    refined = Tensor(r.normal(0, 1, (2, h, tiny_cfg.n_patches, dh)))
    s_pool = Tensor(r.normal(0, 1, (2, h, dh)))
    base = integrate(refined, s_pool, model.params, "layer0.tsia").data
    doubled_pool = integrate(refined, Tensor(2.0 * s_pool.data), model.params,
                             "layer0.tsia").data
    doubled_ref = integrate(Tensor(2.0 * refined.data), s_pool, model.params,
                            "layer0.tsia").data
    # scaling by 2 is exact in binary floating point
    assert np.array_equal(doubled_pool, 2.0 * base)
    assert np.array_equal(doubled_ref, 2.0 * base)


def test_st2t_leaves_spatial_stream_untouched_by_temporal(tiny_cfg):
    model, _ = build(tiny_cfg)
    r = RngStream(14, 207)
    z_s = Tensor(r.normal(0, 1, (1, tiny_cfg.n_channels, tiny_cfg.embed_dim)))
    z_t1 = Tensor(r.normal(0, 1, (1, tiny_cfg.n_patches, tiny_cfg.embed_dim)))
    z_t2 = Tensor(r.normal(0, 1, (1, tiny_cfg.n_patches, tiny_cfg.embed_dim)))
    _, s1 = run_layers(z_t1, z_s, model.params, tiny_cfg, None, False)
    _, s2 = run_layers(z_t2, z_s, model.params, tiny_cfg, None, False)
    assert np.array_equal(s1.data, s2.data)


def test_st2s_leaves_temporal_stream_untouched_by_spatial(tiny_cfg):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "integration_mode": "st2s"})
    model, _ = build(cfg)
    r = RngStream(15, 208)
    z_t = Tensor(r.normal(0, 1, (1, cfg.n_patches, cfg.embed_dim)))
    z_s1 = Tensor(r.normal(0, 1, (1, cfg.n_channels, cfg.embed_dim)))
    z_s2 = Tensor(r.normal(0, 1, (1, cfg.n_channels, cfg.embed_dim)))
    t1, _ = run_layers(z_t, z_s1, model.params, cfg, None, False)
    t2, _ = run_layers(z_t, z_s2, model.params, cfg, None, False)
    assert np.array_equal(t1.data, t2.data)


def test_none_mode_streams_are_independent(tiny_cfg):
    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), "integration_mode": "none"})
    model, _ = build(cfg)
    r = RngStream(16, 209)
    z_t = Tensor(r.normal(0, 1, (1, cfg.n_patches, cfg.embed_dim)))
    z_s1 = Tensor(r.normal(0, 1, (1, cfg.n_channels, cfg.embed_dim)))
    z_s2 = Tensor(r.normal(0, 1, (1, cfg.n_channels, cfg.embed_dim)))
    t1, _ = run_layers(z_t, z_s1, model.params, cfg, None, False)
    t2, _ = run_layers(z_t, z_s2, model.params, cfg, None, False)
    assert np.array_equal(t1.data, t2.data)


def test_channel_permutation_equivariance(tiny_cfg):
    """Permuting input channels along with every channel-indexed parameter
    leaves the logits unchanged up to float reduction order."""
    model, vals = build(tiny_cfg, seed=9)
    x = trial(tiny_cfg, seed=30)
    base = model.forward(x[None]).data[0]

    perm = np.array([2, 0, 1])
    permuted = Model.build(tiny_cfg, seed=9)
    permuted.params.replace("temporal_tokenizer.pointwise.weight",
                            vals["temporal_tokenizer.pointwise.weight"][:, perm])
    permuted.params.replace("position.spatial", vals["position.spatial"][perm])
    permuted.params.replace("fusion.channel_weights", vals["fusion.channel_weights"][perm])
    for layer in range(tiny_cfg.temporal_depth):
        name = f"layer{layer}.tsia.electrode_embedding"
        permuted.params.replace(name, vals[name][:, perm, :])
    out = permuted.forward(x[perm][None]).data[0]
    assert np.max(np.abs(out - base)) <= 1e-12


@pytest.mark.parametrize("flag,zero_names", [
    ("use_cosine_gate", ["layer{l}.tsia.gate"]),
    ("use_electrode_pos_embedding", ["layer{l}.tsia.electrode_embedding"]),
    ("use_positional_embedding", ["position.temporal", "position.spatial"]),
])
def test_flag_off_equals_zeroed_weights(tiny_cfg, flag, zero_names):
    cfg_off = ModelConfig(**{**_cfg_dict(tiny_cfg), flag: False})
    model_off = Model.build(cfg_off, seed=17)
    model_on = Model.build(tiny_cfg, seed=17)
    # identical allocation means identical init draws
    for name in model_on.params.tensors:
        assert np.array_equal(model_on.params[name].data, model_off.params[name].data)
    for pattern in zero_names:
        for layer in range(tiny_cfg.temporal_depth):
            name = pattern.format(l=layer)
            if name in model_on.params.tensors:
                model_on.params.replace(name, np.zeros_like(model_on.params[name].data))
    x = trial(tiny_cfg, seed=31)
    a = model_on.forward(x[None]).data
    b = model_off.forward(x[None]).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# parameter table


def reference_cfg():
    return ModelConfig(n_channels=22, n_samples=1000, n_classes=2)


def test_reference_patch_count():
    assert reference_cfg().n_patches == 20


def test_parameter_count_in_reference_window():
    params, flops = count_params_flops(reference_cfg())
    assert 84_910 <= params <= 157_690
    assert flops <= 12_240_000


def test_fusion_mode_parameter_delta_is_exact():
    cfg = reference_cfg()
    base = count_params(cfg)
    from dataclasses import replace

    lean = count_params(replace(cfg, fusion_mode="mean-concat"))
    d = cfg.embed_dim
    w = d // 2
    assert base - lean == cfg.n_channels + (d * w + w + w + 1)


def test_flag_deltas_match_allocation():
    cfg = reference_cfg()
    from dataclasses import replace

    h, d, dh, c, p = cfg.n_heads, cfg.embed_dim, cfg.head_dim, cfg.n_channels, cfg.n_patches
    no_gate = count_params(replace(cfg, use_cosine_gate=False))
    assert count_params(cfg) - no_gate == cfg.temporal_depth * h * d * dh
    no_epos = count_params(replace(cfg, use_electrode_pos_embedding=False))
    assert count_params(cfg) - no_epos == cfg.temporal_depth * h * c * dh
    no_pos = count_params(replace(cfg, use_positional_embedding=False))
    assert count_params(cfg) - no_pos == p * d + c * d


def test_allocation_does_not_depend_on_flags():
    cfg = reference_cfg()
    from dataclasses import replace

    names = [s.name for s in param_specs(cfg)]
    for flag in ("use_cosine_gate", "use_electrode_pos_embedding",
                 "use_positional_embedding"):
        other = [s.name for s in param_specs(replace(cfg, **{flag: False}))]
        assert names == other


def test_bidir_allocates_both_directions():
    cfg = reference_cfg()
    from dataclasses import replace

    names = {s.name for s in param_specs(replace(cfg, integration_mode="bidir"))}
    assert "layer0.tsia.query_a" in names
    assert "layer0.tsia_rev.query_a" in names
    st2t = {s.name for s in param_specs(cfg)}
    assert "layer0.tsia_rev.query_a" not in st2t


# exact (count_params, count_flops) on 8 ch x 512 samples unless the geometry says otherwise
PINNED_COUNTS = [
    ({}, 117_595, 4_081_076),
    ({"n_channels": 22, "n_samples": 1000}, 124_009, 11_446_494),
    ({"integration_mode": "st2s"}, 117_835, 4_053_356),
    ({"integration_mode": "bidir"}, 147_595, 4_689_356),
    ({"integration_mode": "none"}, 87_835, 3_445_076),
    ({"fusion_mode": "mean-concat"}, 116_746, 4_063_506),
    ({"use_cosine_gate": False}, 112_795, 3_982_676),
    ({"use_electrode_pos_embedding": False}, 116_635, 4_079_156),
    ({"use_positional_embedding": False}, 116_875, 4_080_356),
    ({"use_tsia": False}, 97_435, 3_638_036),
    ({"spatial_depth": 0}, 78_355, 3_437_876),
    ({"head_shared_electrode_embedding": True}, 116_875, 4_081_076),
    ({"integration_mode": "bidir", "head_shared_electrode_embedding": True}, 145_975, 4_689_356),
]


def _overrides_id(value):
    if isinstance(value, dict):
        return "-".join(f"{k}={v}" for k, v in value.items()) or "default"
    return None


@pytest.mark.parametrize("overrides,params,flops", PINNED_COUNTS, ids=_overrides_id)
def test_pinned_param_and_flop_counts(overrides, params, flops):
    cfg = ModelConfig(**{"n_channels": 8, "n_samples": 512, "n_classes": 2, **overrides})
    assert count_params_flops(cfg) == (params, flops)


_FFN_LEAVES = ("norm.gain", "norm.bias", "expand.weight", "expand.bias",
               "contract.weight", "contract.bias")
_TSIA_LEAVES = ("query_a", "query_b", "{embed}", "value", "gate", "key", "out.weight")


def test_param_table_order_is_pinned():
    # the table order is the order of the init draws
    cfg = ModelConfig(n_channels=8, n_samples=512, n_classes=2, temporal_depth=2,
                      spatial_depth=1, integration_mode="bidir")

    def block(prefix, leaves, embed=""):
        return [f"{prefix}.{leaf.format(embed=embed)}" for leaf in leaves]

    want = [
        "temporal_tokenizer.pointwise.weight", "temporal_tokenizer.pointwise.bias",
        "temporal_tokenizer.norm.gain", "temporal_tokenizer.norm.bias",
        "temporal_tokenizer.depthwise.weight", "temporal_tokenizer.depthwise.bias",
        "spatial_tokenizer.conv.weight", "spatial_tokenizer.conv.bias",
        "spatial_tokenizer.norm.gain", "spatial_tokenizer.norm.bias",
        "spatial_tokenizer.proj.weight",
        "position.temporal", "position.spatial",
        *block("layer0.spatial_ffn", _FFN_LEAVES),
        *block("layer0.temporal_ffn", _FFN_LEAVES),
        *block("layer0.tsia", _TSIA_LEAVES, "electrode_embedding"),
        *block("layer0.tsia_rev", _TSIA_LEAVES, "token_embedding"),
        *block("layer1.temporal_ffn", _FFN_LEAVES),
        *block("layer1.tsia", _TSIA_LEAVES, "electrode_embedding"),
        *block("layer1.tsia_rev", _TSIA_LEAVES, "token_embedding"),
        "fusion.channel_weights", "fusion.score.hidden.weight", "fusion.score.hidden.bias",
        "fusion.score.out.weight", "fusion.score.out.bias",
        "classifier.hidden.weight", "classifier.hidden.bias",
        "classifier.out.weight", "classifier.out.bias",
    ]
    assert [s.name for s in param_specs(cfg)] == want


@pytest.mark.parametrize("overrides", [
    *({"integration_mode": m, "fusion_mode": f}
      for m in ("st2t", "st2s", "bidir", "none") for f in ("adaptive", "mean-concat")),
    {"use_cosine_gate": False},
    {"use_electrode_pos_embedding": False},
    {"use_positional_embedding": False},
    {"use_tsia": False},
    {"spatial_depth": 0},
], ids=_overrides_id)
def test_gradients_reach_exactly_the_active_parameters(tiny_cfg, overrides):
    from lidsn.training import weighted_cross_entropy

    cfg = ModelConfig(**{**_cfg_dict(tiny_cfg), **overrides})
    model = Model.build(cfg, seed=3)
    x = RngStream(23, 212).normal(0, 1, (4, cfg.n_channels, cfg.n_samples))
    with tz.Tape() as tape:
        logits = model.forward(x, rng=RngStream(23, 213), training=True)
        loss = weighted_cross_entropy(logits, np.array([0, 1, 0, 1]), np.ones(cfg.n_classes))
        grads = tz.backward(loss, tape)
    reached = {name for name, t in model.params.tensors.items() if t in grads}
    assert reached == {s.name for s in param_specs(cfg) if s.active}


def test_init_is_deterministic(tiny_cfg):
    a = init_params(tiny_cfg, seed=5)
    b = init_params(tiny_cfg, seed=5)
    c = init_params(tiny_cfg, seed=6)
    for name in a.tensors:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.tensors)


def test_constant_init_of_channel_weights(tiny_cfg):
    ps = init_params(tiny_cfg, seed=0)
    assert np.allclose(ps["fusion.channel_weights"].data, 1.0 / tiny_cfg.n_channels)


def test_snapshot_roundtrip_preserves_logits(tmp_path, tiny_cfg):
    from lidsn.params import round_through_f32

    model, _ = build(tiny_cfg, seed=8)
    model.params = round_through_f32(model.params, tiny_cfg.np_dtype)
    x = trial(tiny_cfg, seed=33)
    base = model.forward(x[None]).data
    path = tmp_path / "m.bin"
    save_snapshot(path, model.params)
    reloaded = Model.build(tiny_cfg, seed=999)
    reloaded.params.load_values(load_snapshot(path))
    assert np.array_equal(reloaded.forward(x[None]).data, base)


# ---------------------------------------------------------------------------
# shapes, traces, saliency


def test_forward_rejects_wrong_geometry(tiny_cfg):
    model, _ = build(tiny_cfg)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, tiny_cfg.n_channels + 1, tiny_cfg.n_samples)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((tiny_cfg.n_channels, tiny_cfg.n_samples)))


def test_trace_contents(tiny_cfg):
    model, _ = build(tiny_cfg)
    x = RngStream(19, 210).normal(0, 1, (2, tiny_cfg.n_channels, tiny_cfg.n_samples))
    capture = {}
    model.forward(x, capture=capture)
    n, h = tiny_cfg.temporal_depth, tiny_cfg.n_heads
    c, p, dh = tiny_cfg.n_channels, tiny_cfg.n_patches, tiny_cfg.head_dim
    assert len([k for k in capture if k.endswith(".tsia/affinity")]) == n
    assert capture["layer0.tsia/affinity"].shape == (2, h, c, c)
    assert capture["layer0.tsia/attention"].shape == (2, h, dh, dh)
    assert capture["layer0.tsia/importance"].shape == (2, h, c)
    assert capture["fusion/alpha"].shape == (2, p)
    assert np.allclose(capture["fusion/alpha"].sum(-1), 1.0, atol=1e-12)


def test_saliency_normalized(tiny_cfg):
    model, _ = build(tiny_cfg)
    x = trial(tiny_cfg, seed=35)
    s = saliency(x, model)
    assert s.shape == (tiny_cfg.n_channels, tiny_cfg.n_samples)
    assert s.min() >= 0.0 and np.isclose(s.max(), 1.0)


@given(
    mode=st.sampled_from(["st2t", "st2s", "bidir", "none"]),
    heads=st.sampled_from([1, 2]),
    seed=st.integers(0, 100),
)
@settings(max_examples=12, deadline=None)
def test_forward_finite_for_random_small_configs(mode, heads, seed):
    cfg = ModelConfig(
        n_channels=2, n_samples=24, n_classes=2, embed_dim=4, spatial_maps=2,
        n_heads=heads, temporal_depth=1, spatial_depth=1, dropout=0.0,
        ffn_expansion=2, kernel_len=3, pool_window=6, pool_stride=6,
        spatial_conv_stride=3, spatial_pool_window=2, spatial_pool_stride=2,
        integration_mode=mode, classifier_hidden=4,
    )
    model = Model.build(cfg, seed=seed)
    x = RngStream(seed, 211).normal(0, 1, (2, 2, 24))
    out = model.forward(x).data
    assert out.shape == (2, 2)
    assert np.all(np.isfinite(out))
