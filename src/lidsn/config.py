"""Model configuration and the one strict reader for every config file."""
from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .errors import ConfigError

INTEGRATION_MODES = ("st2t", "st2s", "bidir", "none")
FUSION_MODES = ("adaptive", "mean-concat")


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and switches for one network.

    n_channels/n_samples/n_classes describe the input epochs; everything else
    defaults to the reference motor-imagery setting.
    """

    n_channels: int
    n_samples: int
    n_classes: int
    embed_dim: int = 40
    spatial_maps: int = 16
    n_heads: int = 4
    temporal_depth: int = 3
    spatial_depth: int = 3
    dropout: float = 0.25
    ffn_expansion: int = 4
    kernel_len: int = 25
    pool_window: int = 50
    spatial_conv_stride: int = 10
    spatial_pool_window: int = 10
    integration_mode: str = "st2t"
    fusion_mode: str = "adaptive"
    use_positional_embedding: bool = True
    use_cosine_gate: bool = True
    use_electrode_pos_embedding: bool = True
    use_tsia: bool = True
    head_shared_electrode_embedding: bool = False
    classifier_hidden: int = 32
    dtype: str = "float64"

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.n_heads

    @property
    def n_patches(self) -> int:
        """Temporal token count P."""
        return self.n_samples // self.pool_window

    @property
    def spatial_conv_len(self) -> int:
        """Length of the spatial tokenizer's strided conv output."""
        return (self.n_samples - 1) // self.spatial_conv_stride + 1

    @property
    def spatial_patches(self) -> int:
        """Pooled sub-window count inside the spatial tokenizer."""
        return self.spatial_conv_len // self.spatial_pool_window

    @property
    def fusion_width(self) -> int:
        return self.embed_dim // 2

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def __post_init__(self):
        if self.n_channels < 1 or self.n_samples < 1 or self.n_classes < 2:
            raise ConfigError(
                f"need n_channels >= 1, n_samples >= 1, n_classes >= 2; got "
                f"{self.n_channels}/{self.n_samples}/{self.n_classes}"
            )
        for name in ("n_heads", "spatial_maps", "temporal_depth", "ffn_expansion",
                     "classifier_hidden", "pool_window", "spatial_conv_stride",
                     "spatial_pool_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim < 1 or self.embed_dim % self.n_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be a positive multiple of n_heads {self.n_heads}"
            )
        if not 0 <= self.spatial_depth <= self.temporal_depth:
            raise ConfigError(
                f"spatial_depth must lie in [0, temporal_depth]; got "
                f"{self.spatial_depth} vs {self.temporal_depth}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.kernel_len < 1 or self.kernel_len % 2 == 0:
            raise ConfigError(f"kernel_len must be odd and >= 1, got {self.kernel_len}")
        if self.pool_window > self.n_samples:
            raise ConfigError(
                f"pool_window {self.pool_window} exceeds n_samples {self.n_samples}"
            )
        if self.spatial_pool_window > self.spatial_conv_len:
            raise ConfigError(
                f"spatial_pool_window {self.spatial_pool_window} exceeds conv output "
                f"length {self.spatial_conv_len}"
            )
        if self.integration_mode not in INTEGRATION_MODES:
            raise ConfigError(
                f"integration_mode must be one of {INTEGRATION_MODES}, got {self.integration_mode!r}"
            )
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(
                f"fusion_mode must be one of {FUSION_MODES}, got {self.fusion_mode!r}"
            )
        if not self.use_tsia and self.integration_mode != "st2t":
            raise ConfigError("use_tsia=false is only defined for integration_mode 'st2t'")
        if self.fusion_width < 1:
            raise ConfigError("fusion width embed_dim // 2 is 0; set embed_dim >= 2")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError(f"dtype must be 'float64' or 'float32', got {self.dtype!r}")


@functools.cache
def _schema(cls) -> tuple[dict, frozenset]:
    """A config dataclass's field annotations and its required field names."""
    required = frozenset(f.name for f in fields(cls)
                         if f.default is MISSING and f.default_factory is MISSING)
    return typing.get_type_hints(cls), required


@functools.cache
def _nesting(tp) -> tuple[bool, object]:
    """(whether tp is a config dataclass, the X of tuple[X, ...] or None)."""
    return is_dataclass(tp), typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None


def _read(tp, value, path: str):
    """Check one JSON value against a field annotation; ints widen to floats."""
    dataclass_type, element = _nesting(tp)
    if dataclass_type:
        return from_dict(tp, value, path)
    if element is not None and isinstance(value, (list, tuple)):
        return tuple(_read(element, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp or tp is float and not math.isfinite(value):
        name = {dict: "object", tuple: "list", float: "finite float"}.get(
            typing.get_origin(tp) or tp, tp.__name__)
        raise ConfigError(f"{path} must be {name}, got {value!r}")
    return value


def from_dict(cls, raw, where: str = "", **overrides):
    """Build a config dataclass from parsed JSON plus ``overrides``.

    Unknown keys, missing required keys and wrong JSON types raise a
    ConfigError naming the key path (``train.lr``, ``classes[1].freq_hz``).
    Bools never pass as ints, ints widen to floats, NaN and infinity are
    rejected, and nested dataclasses and ``tuple[X, ...]`` fields recurse.
    Range checks belong to each config type's ``__post_init__``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be object, got {raw!r}")
    prefix = f"{where}." if where else ""
    merged = {**raw, **overrides}
    hints, required = _schema(cls)
    for problem, keys in (("unknown", set(merged) - set(hints)),
                          ("missing required", required - set(merged))):
        if keys:
            names = ", ".join(sorted(prefix + k for k in keys))
            raise ConfigError(f"{problem} config keys: {names}")
    return cls(**{k: _read(hints[k], v, prefix + k) for k, v in merged.items()})


def model_config_from_dict(raw: dict, **geometry) -> ModelConfig:
    """Build a validated ModelConfig from a plain dict, rejecting unknown keys."""
    return from_dict(ModelConfig, raw, "model", **geometry)
