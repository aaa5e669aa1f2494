"""Layer-wise interactive dual-stream network for EEG decoding.

A self-contained research codebase: a small reverse-mode tensor engine, the
dual-stream attention model, an epoched-EEG binary format with a synthetic
generator, alignment and spectral features, protocol splits, and training.
"""

from .config import FUSION_MODES, INTEGRATION_MODES, ModelConfig, model_config_from_dict
from .data import (
    DEFAULT_BANDS,
    ClassRecipe,
    EpochSet,
    SplitPlan,
    SynthSpec,
    euclidean_align,
    load_epochs,
    make_split,
    rpsd_features,
    save_epochs,
    synth_generate,
)
from .errors import ConfigError, DataFormatError, LidsnError, NumericError, ShapeError
from .gradcheck import grad_check
from .network import Model, forward, saliency
from .params import (
    ParamSet,
    count_flops,
    count_params,
    count_params_flops,
    init_params,
    load_snapshot,
    param_specs,
    save_snapshot,
)
from .rng import RngStream
from .tensor import Tape, Tensor, backward
from .training import (
    Adam,
    RunConfig,
    TrainConfig,
    TrainOutcome,
    class_weights,
    confusion_matrix,
    evaluate_model,
    metrics_from_confusion,
    run_protocol,
    train_model,
    validation_tail,
    weighted_cross_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ClassRecipe",
    "ConfigError",
    "DEFAULT_BANDS",
    "DataFormatError",
    "EpochSet",
    "FUSION_MODES",
    "INTEGRATION_MODES",
    "LidsnError",
    "Model",
    "ModelConfig",
    "NumericError",
    "ParamSet",
    "RngStream",
    "RunConfig",
    "ShapeError",
    "SplitPlan",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainOutcome",
    "backward",
    "class_weights",
    "confusion_matrix",
    "count_flops",
    "count_params",
    "count_params_flops",
    "euclidean_align",
    "evaluate_model",
    "forward",
    "grad_check",
    "init_params",
    "load_epochs",
    "load_snapshot",
    "make_split",
    "metrics_from_confusion",
    "model_config_from_dict",
    "param_specs",
    "rpsd_features",
    "run_protocol",
    "saliency",
    "save_epochs",
    "save_snapshot",
    "synth_generate",
    "train_model",
    "validation_tail",
    "weighted_cross_entropy",
    "__version__",
]
