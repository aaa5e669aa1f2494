"""Dual-stream network: tokenizers, interactive attention, fusion, classifier.

All blocks take batched tensors ([B, C, T] inputs, [B, rows, D] token grids)
and are pure functions of (tensors, params, cfg) except for train-mode
batchnorm, which updates its running state, and dropout, which draws from the
rng handed to forward.
"""
from __future__ import annotations

import math

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .params import ParamSet, init_params
from .rng import RngStream
from . import tensor as tz
from .tensor import Tape, Tensor, backward

EVAL_CHUNK = 256  # trials per eval forward: bounds the layers' token grids (see eval_block)
# Bytes of one tokenizer block's widest array: with its inputs and outputs it
# stays inside a 2 MiB L2, where a whole [32, 40, 512] float64 batch (5.2 MB) does not
BLOCK_BYTES = 640 * 1024


def temporal_tokenize(x: Tensor, params: ParamSet, cfg: ModelConfig, training: bool) -> Tensor:
    """[B, C, T] -> [B, P, D]: pointwise mix with batchnorm folded in, depthwise conv, GELU, pool."""
    y = tz.conv1d_pointwise(
        x,
        params["temporal_tokenizer.pointwise.weight"],
        params["temporal_tokenizer.pointwise.bias"],
        params["temporal_tokenizer.norm.gain"],
        params["temporal_tokenizer.norm.bias"],
        params.states["temporal_tokenizer.norm"],
        training,
    )
    y = tz.conv1d_depthwise(
        y, params["temporal_tokenizer.depthwise.weight"], params["temporal_tokenizer.depthwise.bias"]
    )
    y = tz.gelu(y)
    y = tz.avgpool1d(y, cfg.pool_window)
    return tz.swapaxes(y, 1, 2)


def spatial_tokenize(x: Tensor, params: ParamSet, cfg: ModelConfig, training: bool) -> Tensor:
    """[B, C, T] -> [B, C, D]: shared per-channel conv, GELU, batchnorm, pool, project.

    Channels are processed independently with shared weights, so the batch and
    channel axes fold together for the conv and its batchnorm.
    """
    b, c, t = x.shape
    xr = tz.reshape(x, (b * c, 1, t))
    y = tz.conv1d(
        xr,
        params["spatial_tokenizer.conv.weight"],
        params["spatial_tokenizer.conv.bias"],
        stride=cfg.spatial_conv_stride,
    )
    y = tz.gelu(y)
    y = tz.batchnorm(
        y,
        params["spatial_tokenizer.norm.gain"],
        params["spatial_tokenizer.norm.bias"],
        params.states["spatial_tokenizer.norm"],
        training,
    )
    y = tz.avgpool1d(y, cfg.spatial_pool_window)
    y = tz.reshape(y, (b, c, cfg.spatial_maps * cfg.spatial_patches))
    return tz.matmul(y, params["spatial_tokenizer.proj.weight"])


def ffn_block(
    z: Tensor, params: ParamSet, prefix: str, cfg: ModelConfig, rng: RngStream | None, training: bool
) -> Tensor:
    """z + Dropout(W_b GELU(W_a LayerNorm(z)))."""
    h = tz.layernorm(z, params[f"{prefix}.norm.gain"], params[f"{prefix}.norm.bias"])
    h = tz.matmul(h, params[f"{prefix}.expand.weight"]) + params[f"{prefix}.expand.bias"]
    h = tz.gelu(h)
    h = tz.matmul(h, params[f"{prefix}.contract.weight"]) + params[f"{prefix}.contract.bias"]
    h = tz.dropout(h, cfg.dropout, rng, training)
    return tz.add(z, h)


def _heads(z: Tensor, w: Tensor) -> Tensor:
    """[B, M, D] x [H, D, dh] -> [B, H, M, dh] via broadcast matmul."""
    b, m, d = z.shape
    return tz.matmul(tz.reshape(z, (b, 1, m, d)), w)


def pooled_context(source: Tensor, params: ParamSet, prefix: str, embed: str, cfg: ModelConfig):
    """Attention-pooled summary of the source stream.

    Returns (s_pool [B, H, dh], affinity [B, H, M, M], importance [B, H, M]).
    """
    y1 = _heads(source, params[f"{prefix}.query_a"])
    y2 = _heads(source, params[f"{prefix}.query_b"])
    if cfg.use_electrode_pos_embedding:
        pos = params[f"{prefix}.{embed}"]
        y1 = tz.add(y1, pos)
        y2 = tz.add(y2, pos)
    scores = tz.scale(tz.matmul(y1, tz.swapaxes(y2, -1, -2)), 1.0 / math.sqrt(cfg.head_dim))
    affinity = tz.softmax(scores)
    importance = tz.softmax(tz.l2norm(y1))
    context = tz.matmul(affinity, y1)
    b, h, m, dh = context.shape
    weighted = tz.mul(tz.reshape(importance, (b, h, m, 1)), context)
    s_pool = tz.reduce_sum(weighted, axis=2)
    return s_pool, affinity, importance


def gated_refine(target: Tensor, params: ParamSet, prefix: str, cfg: ModelConfig):
    """Cosine-gated feature-dimension attention over the target stream.

    Returns (refined [B, H, M, dh], attention [B, H, dh, dh]).
    """
    x1 = _heads(target, params[f"{prefix}.value"])
    if cfg.use_cosine_gate:
        phase = _heads(target, params[f"{prefix}.gate"])
        x1 = tz.mul(x1, tz.cosine(phase))
    keys = _heads(target, params[f"{prefix}.key"])
    m = target.shape[1]
    scores = tz.scale(tz.matmul(tz.swapaxes(x1, -1, -2), keys), 1.0 / math.sqrt(m))
    attention = tz.softmax(scores)
    refined = tz.matmul(x1, attention)
    return refined, attention


def integrate(refined: Tensor, s_pool: Tensor, params: ParamSet, prefix: str) -> Tensor:
    """Gate refined target tokens by the pooled source summary, merge heads, project."""
    b, h, m, dh = refined.shape
    gated = tz.mul(refined, tz.reshape(s_pool, (b, h, 1, dh)))
    merged = tz.reshape(tz.swapaxes(gated, 1, 2), (b, m, h * dh))
    return tz.matmul(merged, params[f"{prefix}.out.weight"])


def tsia_apply(source: Tensor, target: Tensor, params: ParamSet, prefix: str, embed: str,
               cfg: ModelConfig, capture: dict | None = None) -> Tensor:
    """Full interactive attention: pool the source, refine the target, gate, project.

    With a capture dict, stores detached copies of the maps under
    ``<prefix>/affinity``, ``<prefix>/importance`` and ``<prefix>/attention``.
    """
    s_pool, affinity, importance = pooled_context(source, params, prefix, embed, cfg)
    refined, attention = gated_refine(target, params, prefix, cfg)
    if capture is not None:
        capture[f"{prefix}/affinity"] = affinity.data.copy()
        capture[f"{prefix}/importance"] = importance.data.copy()
        capture[f"{prefix}/attention"] = attention.data.copy()
    return integrate(refined, s_pool, params, prefix)


def run_layers(
    z_t: Tensor,
    z_s: Tensor,
    params: ParamSet,
    cfg: ModelConfig,
    rng: RngStream | None,
    training: bool,
    capture: dict | None = None,
):
    """Stacked dual-stream layers with the configured integration direction."""
    mode = cfg.integration_mode
    for layer in range(cfg.temporal_depth):
        if layer < cfg.spatial_depth:
            z_s = ffn_block(z_s, params, f"layer{layer}.spatial_ffn", cfg, rng, training)
        h_t = ffn_block(z_t, params, f"layer{layer}.temporal_ffn", cfg, rng, training)
        if not cfg.use_tsia:
            pooled = tz.reduce_mean(z_s, axis=1)
            b = z_s.shape[0]
            ones = Tensor(np.ones((1, cfg.n_patches, 1), dtype=z_s.dtype))
            spread = tz.mul(ones, tz.reshape(pooled, (b, 1, cfg.embed_dim)))
            cat = tz.concat([h_t, spread], axis=-1)
            z_t = tz.matmul(cat, params[f"layer{layer}.concat_proj.weight"])
            continue
        # st2s reads h_t and this layer's z_s, so z_t may be replaced first
        z_t = h_t
        if mode in ("st2t", "bidir"):
            z_t = tsia_apply(z_s, h_t, params, f"layer{layer}.tsia",
                             "electrode_embedding", cfg, capture)
        if mode in ("st2s", "bidir"):
            z_s = tsia_apply(h_t, z_s, params, f"layer{layer}.tsia_rev",
                             "token_embedding", cfg, capture)
    return z_t, z_s


def fuse(z_t: Tensor, z_s: Tensor, params: ParamSet, cfg: ModelConfig,
         capture: dict | None = None) -> Tensor:
    """Collapse both streams to one [B, 2D] vector; captures ``fusion/alpha``."""
    b = z_t.shape[0]
    if cfg.fusion_mode == "adaptive":
        cw = tz.reshape(params["fusion.channel_weights"], (cfg.n_channels, 1))
        zs_vec = tz.reduce_sum(tz.mul(z_s, cw), axis=1)
        h = tz.matmul(z_t, params["fusion.score.hidden.weight"]) + params["fusion.score.hidden.bias"]
        h = tz.relu(h)
        scores = tz.matmul(h, params["fusion.score.out.weight"]) + params["fusion.score.out.bias"]
        alpha = tz.softmax(tz.reshape(scores, (b, cfg.n_patches)))
        if capture is not None:
            capture["fusion/alpha"] = alpha.data.copy()
        zt_vec = tz.reduce_sum(tz.mul(tz.reshape(alpha, (b, cfg.n_patches, 1)), z_t), axis=1)
    else:
        zt_vec = tz.reduce_mean(z_t, axis=1)
        zs_vec = tz.reduce_mean(z_s, axis=1)
    return tz.concat([zt_vec, zs_vec], axis=-1)


def classify(u: Tensor, params: ParamSet) -> Tensor:
    h = tz.matmul(u, params["classifier.hidden.weight"]) + params["classifier.hidden.bias"]
    h = tz.relu(h)
    return tz.matmul(h, params["classifier.out.weight"]) + params["classifier.out.bias"]


def eval_block(cfg: ModelConfig) -> tuple[int, ...]:
    """Trials per block of the temporal and of the spatial tokenizer in an untaped eval forward.

    Each tokenizer's widest activation, the depthwise conv's [n, D, T] or the
    spatial conv's [n * C, maps, conv_len], fills about BLOCK_BYTES; a block
    holds at least one trial.
    """
    widths = (cfg.embed_dim * cfg.n_samples, cfg.n_channels * cfg.spatial_maps * cfg.spatial_conv_len)
    return tuple(max(1, BLOCK_BYTES // (w * np.dtype(cfg.np_dtype).itemsize)) for w in widths)


def forward(
    x: Tensor,
    params: ParamSet,
    cfg: ModelConfig,
    rng: RngStream | None = None,
    training: bool = False,
    capture: dict | None = None,
) -> Tensor:
    """Batched forward pass: [B, C, T] -> logits [B, n_classes].

    A capture dict receives detached copies of the attention maps and patch
    weights, keyed by block, e.g. ``layer1.tsia_rev/attention``. A pass that
    records nothing runs each tokenizer over blocks of its eval_block(cfg)
    trials, which stay in cache; the layers run on the whole batch.
    """
    if x.ndim != 3 or x.shape[1] != cfg.n_channels or x.shape[2] != cfg.n_samples:
        raise ShapeError(
            f"forward expects [B, {cfg.n_channels}, {cfg.n_samples}], got {x.shape}"
        )
    b = x.shape[0]
    taped = training or tz.active_tape() is not None
    tokens = []
    # eval batchnorm uses running statistics, so every trial tokenizes alone
    # and a block's tokens equal the whole batch's bit for bit
    for tokenize, step in zip((temporal_tokenize, spatial_tokenize), eval_block(cfg)):
        blocks = [x] if taped or step >= b else [Tensor(x.data[lo : lo + step])
                                                 for lo in range(0, b, step)]
        tokens.append(tz.concat([tokenize(xb, params, cfg, training) for xb in blocks]))
    z_t, z_s = tokens
    if cfg.use_positional_embedding:
        z_t = tz.add(z_t, params["position.temporal"])
        z_s = tz.add(z_s, params["position.spatial"])
    z_t, z_s = run_layers(z_t, z_s, params, cfg, rng, training, capture)
    u = fuse(z_t, z_s, params, cfg, capture)
    return classify(u, params)


class Model:
    """Configured network: parameter set plus forward conveniences."""

    def __init__(self, cfg: ModelConfig, params: ParamSet):
        self.cfg = cfg
        self.params = params

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "Model":
        return cls(cfg, init_params(cfg, seed))

    def forward(self, x, rng=None, training=False, capture=None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.cfg.np_dtype))
        return forward(x, self.params, self.cfg, rng, training, capture)

    def logits_np(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode logits for a numpy batch, chunked to bound memory."""
        if x.shape[0] == 0:
            raise ConfigError("cannot evaluate an empty batch of trials")
        outs = []
        for lo in range(0, x.shape[0], EVAL_CHUNK):
            chunk = Tensor(x[lo : lo + EVAL_CHUNK].astype(self.cfg.np_dtype, copy=False))
            outs.append(self.forward(chunk).data)
        return np.concatenate(outs, axis=0)


def saliency(x: np.ndarray, model: Model) -> np.ndarray:
    """Input-gradient saliency map of the predicted class's logit for one
    trial, max-normalized to [0, 1]. x: [C, T]."""
    xt = Tensor(np.asarray(x, dtype=model.cfg.np_dtype)[None], requires_grad=True)
    with Tape() as tape:
        logits = model.forward(xt)
        # the gradient of this target is the one-hot itself, exact in either dtype
        one_hot = np.zeros(logits.shape, dtype=logits.dtype)
        one_hot[0, np.argmax(logits.data[0])] = 1.0
        target = tz.reduce_sum(tz.mul(logits, Tensor(one_hot)))
        grads = backward(target, tape)
    sal = np.abs(grads[xt][0])
    peak = sal.max()
    if peak > 0:
        sal = sal / peak
    return sal
