"""Epoched EEG containers, file format, synthesis, alignment, features, splits.

The on-disk format (EEGB v1, little-endian) is:

    magic 'EEGB' | u16 version=1 | u32 n_trials | u16 n_channels |
    u32 n_samples | f32 fs | u16 n_classes |
    u16 labels[n_trials] | u16 subjects[n_trials] |
    f32 data[trial][channel][sample]

Every sample must be finite; a file holding NaN or infinity does not load.

In memory data is float64; files store float32. Generated sets are rounded
through float32 so save/load round-trips are bit-exact; aligned sets keep full
f64 precision because their covariance post-condition is tighter than f32.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError

EEGB_MAGIC = b"EEGB"
EEGB_VERSION = 1
_HEADER = struct.Struct("<4sHIHIfH")

# relative PSD bands in Hz, endpoints inclusive
DEFAULT_BANDS = ((1.0, 3.0), (4.0, 8.0), (8.0, 12.0), (12.0, 16.0),
                 (16.0, 20.0), (20.0, 28.0), (30.0, 45.0))


@dataclass
class EpochSet:
    """Trials x channels x samples with labels and subject ids."""

    data: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    fs: float
    n_classes: int
    channel_names: list[str] | None = None
    provenance: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.subjects = np.asarray(self.subjects, dtype=np.int64)
        if self.data.ndim != 3:
            raise DataFormatError("bad_field", f"data must be [n, C, T], got {self.data.shape}")
        n = self.data.shape[0]
        if self.labels.shape != (n,) or self.subjects.shape != (n,):
            raise DataFormatError(
                "bad_field",
                f"labels/subjects shapes {self.labels.shape}/{self.subjects.shape} do not match {n} trials",
            )
        if not (self.fs > 0) or not np.isfinite(self.fs):
            raise DataFormatError("bad_field", f"sampling rate must be positive, got {self.fs}")
        if self.n_classes < 1:
            raise DataFormatError("bad_field", f"n_classes must be >= 1, got {self.n_classes}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataFormatError(
                "label_out_of_range",
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]",
            )
        if n and self.subjects.min() < 0:
            raise DataFormatError("bad_field", "subject ids must be non-negative")

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[2]

    def subset(self, idx: np.ndarray, note: str = "") -> "EpochSet":
        return EpochSet(
            self.data[idx],
            self.labels[idx],
            self.subjects[idx],
            self.fs,
            self.n_classes,
            self.channel_names,
            self.provenance + note,
        )


def save_epochs(path, epochs: EpochSet) -> None:
    for name, arr in (("labels", epochs.labels), ("subjects", epochs.subjects)):
        if arr.size and arr.max() > 0xFFFF:
            raise DataFormatError("bad_field", f"{name} exceed u16 range")
    for name, v in (("n_trials", epochs.n_trials), ("n_channels", epochs.n_channels),
                    ("n_samples", epochs.n_samples)):
        limit = 0xFFFFFFFF if name in ("n_trials", "n_samples") else 0xFFFF
        if v > limit:
            raise DataFormatError("bad_field", f"{name}={v} exceeds format range")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(EEGB_MAGIC, EEGB_VERSION, epochs.n_trials, epochs.n_channels,
                              epochs.n_samples, epochs.fs, epochs.n_classes))
        fh.write(epochs.labels.astype("<u2").tobytes())
        fh.write(epochs.subjects.astype("<u2").tobytes())
        fh.write(np.ascontiguousarray(epochs.data, dtype="<f4").tobytes())


def load_epochs(path) -> EpochSet:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataFormatError("truncated_header", f"file has {len(blob)} bytes, header needs {_HEADER.size}")
    magic, version, n_trials, n_channels, n_samples, fs, n_classes = _HEADER.unpack_from(blob, 0)
    if magic != EEGB_MAGIC:
        raise DataFormatError("bad_magic", f"bad magic {magic!r}, expected {EEGB_MAGIC!r}")
    if version != EEGB_VERSION:
        raise DataFormatError("bad_version", f"unsupported format version {version}")
    if n_channels == 0 or n_samples == 0 or n_classes == 0 or not (fs > 0):
        raise DataFormatError(
            "bad_field",
            f"invalid header fields: n_channels={n_channels} n_samples={n_samples} "
            f"n_classes={n_classes} fs={fs}",
        )
    off = _HEADER.size
    need = n_trials * 2 * 2 + n_trials * n_channels * n_samples * 4
    if len(blob) - off < need:
        raise DataFormatError(
            "truncated_payload",
            f"payload has {len(blob) - off} bytes, expected {need}",
        )
    if len(blob) - off > need:
        raise DataFormatError("trailing_data", f"{len(blob) - off - need} trailing bytes")
    labels = np.frombuffer(blob, dtype="<u2", count=n_trials, offset=off).astype(np.int64)
    off += n_trials * 2
    subjects = np.frombuffer(blob, dtype="<u2", count=n_trials, offset=off).astype(np.int64)
    off += n_trials * 2
    data = np.frombuffer(blob, dtype="<f4", count=n_trials * n_channels * n_samples, offset=off)
    if not np.isfinite(data).all():
        bad = int(np.count_nonzero(~np.isfinite(data)))
        raise DataFormatError("non_finite", f"payload has {bad} non-finite samples")
    data = data.astype(np.float64).reshape(n_trials, n_channels, n_samples)
    if n_trials and labels.max() >= n_classes:
        raise DataFormatError(
            "label_out_of_range",
            f"label {labels.max()} out of range for {n_classes} classes",
        )
    return EpochSet(data, labels, subjects, float(fs), int(n_classes))


# ---------------------------------------------------------------------------
# synthetic epochs


@dataclass(frozen=True)
class ClassRecipe:
    """One class's oscillation: carrier frequency on a set of channels."""

    freq_hz: float
    channels: tuple
    amplitude: float = 1.0


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 4
    trials_per_subject: int = 50
    n_channels: int = 8
    n_samples: int = 512
    fs: float = 128.0
    classes: tuple = (
        ClassRecipe(10.0, (2, 3), 1.0),
        ClassRecipe(22.0, (5, 6), 1.0),
    )
    pink_exponent: float = 1.0
    pink_sigma: float = 0.3
    white_sigma: float = 0.5
    gain_spread: float = 0.2
    freq_jitter_hz: float = 0.5

    def validate(self) -> "SynthSpec":
        if self.n_subjects < 1 or self.trials_per_subject < 1:
            raise ConfigError("need at least one subject and one trial per subject")
        if self.n_channels < 1 or self.n_samples < 2:
            raise ConfigError("need n_channels >= 1 and n_samples >= 2")
        if not (self.fs > 0):
            raise ConfigError(f"fs must be positive, got {self.fs}")
        if len(self.classes) < 2:
            raise ConfigError("need at least two class recipes")
        for i, r in enumerate(self.classes):
            bad = [c for c in r.channels if not 0 <= c < self.n_channels]
            if bad:
                raise ConfigError(f"class {i} uses channels {bad} outside [0, {self.n_channels})")
        if self.gain_spread < 0 or self.gain_spread >= 1:
            raise ConfigError("gain_spread must be in [0, 1)")
        return self


def _pink_noise(rng, n_channels: int, n_samples: int, exponent: float, fs: float) -> np.ndarray:
    white = rng.normal(0.0, 1.0, (n_channels, n_samples))
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)
    shaping = np.ones_like(freqs)
    shaping[1:] = freqs[1:] ** (-exponent / 2.0)
    shaping[0] = 0.0
    shaped = np.fft.irfft(spec * shaping, n=n_samples, axis=1)
    std = shaped.std(axis=1, keepdims=True)
    std[std == 0] = 1.0
    return shaped / std


def synth_generate(spec: SynthSpec, seed: int) -> EpochSet:
    """Deterministic synthetic epochs: class oscillations plus 1/f and white noise.

    The same (spec, seed) pair reproduces the same bytes on any platform.
    Values are rounded through float32 so file round-trips are exact.
    """
    spec.validate()
    from .rng import RngStream

    rng = RngStream(seed, stream=3)
    c, t = spec.n_channels, spec.n_samples
    times = np.arange(t) / spec.fs
    n_classes = len(spec.classes)
    total = spec.n_subjects * spec.trials_per_subject
    data = np.zeros((total, c, t))
    labels = np.zeros(total, dtype=np.int64)
    subjects = np.zeros(total, dtype=np.int64)
    row = 0
    for subj in range(spec.n_subjects):
        gain = float(rng.uniform(1.0 - spec.gain_spread, 1.0 + spec.gain_spread))
        offsets = rng.uniform(-spec.freq_jitter_hz, spec.freq_jitter_hz, n_classes)
        for trial in range(spec.trials_per_subject):
            k = trial % n_classes
            recipe = spec.classes[k]
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            pink = spec.pink_sigma * _pink_noise(rng, c, t, spec.pink_exponent, spec.fs)
            white = spec.white_sigma * rng.normal(0.0, 1.0, (c, t))
            trial_data = pink + white
            carrier = recipe.amplitude * gain * np.sin(
                2.0 * np.pi * (recipe.freq_hz + offsets[k]) * times + phase
            )
            for ch in recipe.channels:
                trial_data[ch] += carrier
            data[row] = trial_data
            labels[row] = k
            subjects[row] = subj
            row += 1
    data = data.astype(np.float32).astype(np.float64)
    return EpochSet(data, labels, subjects, spec.fs, n_classes,
                    provenance=f"synth seed={seed}")


# ---------------------------------------------------------------------------
# Euclidean Alignment


def euclidean_align(epochs: EpochSet, fit_indices: np.ndarray | None = None) -> EpochSet:
    """Whiten each subject's trials by its mean trial covariance.

    Per subject: R = mean_i(X_i X_i^T / T) over the fit trials (that subject's
    rows of fit_indices, defaulting to all of its trials; subjects with no fit
    trials fall back to all of theirs), then every trial becomes R^{-1/2} X_i.
    The recomputed mean covariance of the aligned fit trials is the identity.
    """
    if epochs.n_trials == 0:
        raise ConfigError("cannot align an empty epoch set")
    fit_mask = np.zeros(epochs.n_trials, dtype=bool)
    if fit_indices is None:
        fit_mask[:] = True
    else:
        fit_mask[np.asarray(fit_indices, dtype=np.int64)] = True
    aligned = epochs.data.copy()
    t = epochs.n_samples
    for subj in np.unique(epochs.subjects):
        idx = np.where(epochs.subjects == subj)[0]
        fit = idx[fit_mask[idx]]
        if fit.size == 0:
            fit = idx
        x = epochs.data[fit]
        r = np.einsum("nct,ndt->cd", x, x, optimize=True) / (fit.size * t)
        r = 0.5 * (r + r.T)
        vals, vecs = np.linalg.eigh(r)
        if vals.min() <= 0:
            r = r + 1e-10 * np.eye(epochs.n_channels)
            vals, vecs = np.linalg.eigh(r)
            if vals.min() <= 0:
                raise NumericError(f"subject {subj}: mean covariance is not positive definite")
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        aligned[idx] = np.einsum("cd,ndt->nct", inv_sqrt, epochs.data[idx], optimize=True)
    return EpochSet(aligned, epochs.labels.copy(), epochs.subjects.copy(), epochs.fs,
                    epochs.n_classes, epochs.channel_names,
                    epochs.provenance + " aligned")


# ---------------------------------------------------------------------------
# relative PSD features


def _segment_starts(n: int, window: int, hop: int) -> np.ndarray:
    return np.arange(0, n - window + 1, hop, dtype=np.int64)


def rpsd_features(
    epochs: EpochSet,
    outer_window_s: float = 20.0,
    outer_overlap: float = 0.8,
    inner_window_s: float = 2.0,
    inner_overlap: float = 0.75,
    bands=DEFAULT_BANDS,
) -> EpochSet:
    """Relative band power features on sliding windows.

    Each trial splits into outer segments (one output row each); each segment
    splits into overlapping sub-windows whose Hann periodogram is reduced to
    band powers, normalized to sum to one, z-scored per channel across the
    segment, and concatenated over (sub-window, band).
    """
    if not bands:
        raise ConfigError("band set must not be empty")
    if not 0.0 <= outer_overlap < 1.0 or not 0.0 <= inner_overlap < 1.0:
        raise ConfigError("overlaps must lie in [0, 1)")
    fs = epochs.fs
    w_out = int(round(outer_window_s * fs))
    w_in = int(round(inner_window_s * fs))
    if w_out > epochs.n_samples:
        raise ConfigError(
            f"outer window of {w_out} samples exceeds trial length {epochs.n_samples}"
        )
    if w_in > w_out:
        raise ConfigError(f"inner window of {w_in} samples exceeds outer window {w_out}")
    if w_in < 2:
        raise ConfigError("inner window must cover at least 2 samples")
    hop_out = max(1, int(round(w_out * (1.0 - outer_overlap))))
    hop_in = max(1, int(round(w_in * (1.0 - inner_overlap))))
    outer_starts = _segment_starts(epochs.n_samples, w_out, hop_out)
    inner_starts = _segment_starts(w_out, w_in, hop_in)
    n_sub = inner_starts.size
    n_bands = len(bands)
    window = np.hanning(w_in)
    freqs = np.fft.rfftfreq(w_in, d=1.0 / fs)
    band_bins = [(freqs >= lo) & (freqs <= hi) for lo, hi in bands]

    rows, labels, subjects = [], [], []
    for i in range(epochs.n_trials):
        for start in outer_starts:
            seg = epochs.data[i, :, start : start + w_out]
            feats = np.zeros((epochs.n_channels, n_sub, n_bands))
            for j, s0 in enumerate(inner_starts):
                sub = seg[:, s0 : s0 + w_in] * window
                psd = np.abs(np.fft.rfft(sub, axis=1)) ** 2
                powers = np.stack([psd[:, m].sum(axis=1) for m in band_bins], axis=1)
                totals = powers.sum(axis=1, keepdims=True)
                if np.any(totals <= 0):
                    bad = int(np.where(totals[:, 0] <= 0)[0][0])
                    raise NumericError(
                        f"trial {i} segment at {start}: zero spectral mass on channel {bad}"
                    )
                feats[:, j, :] = powers / totals
            flat = feats.reshape(epochs.n_channels, n_sub * n_bands)
            mu = flat.mean(axis=1, keepdims=True)
            sd = flat.std(axis=1, keepdims=True)
            sd[sd == 0] = 1.0
            rows.append((flat - mu) / sd)
            labels.append(epochs.labels[i])
            subjects.append(epochs.subjects[i])
    return EpochSet(np.stack(rows), np.array(labels), np.array(subjects), fs,
                    epochs.n_classes, epochs.channel_names,
                    epochs.provenance + " rpsd")


# ---------------------------------------------------------------------------
# protocol splits


@dataclass
class SplitPlan:
    protocol: str
    folds: list  # [(train_idx, test_idx), ...]


PROTOCOLS = ("CO", "CV", "LOSO")


def make_split(epochs: EpochSet, protocol: str, n_folds: int = 5,
               train_fraction: float = 0.8) -> SplitPlan:
    """Chronology-preserving evaluation splits.

    CO: per subject, first train_fraction of trials train, rest test (1 fold).
    CV: per subject, n_folds contiguous segments, sized base+1 for the first
        (n mod n_folds) segments; fold k tests on every subject's segment k.
    LOSO: one fold per subject, that subject's trials as test.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    subj_ids = np.unique(epochs.subjects)
    by_subject = {s: np.where(epochs.subjects == s)[0] for s in subj_ids}
    all_idx = np.arange(epochs.n_trials)

    if protocol == "CO":
        train_parts, test_parts = [], []
        for s in subj_ids:
            idx = by_subject[s]
            n_train = int(np.floor(train_fraction * idx.size))
            if n_train == 0 or n_train == idx.size:
                raise ConfigError(
                    f"subject {s} has {idx.size} trials; cannot form a CO split"
                )
            train_parts.append(idx[:n_train])
            test_parts.append(idx[n_train:])
        return SplitPlan("CO", [(np.concatenate(train_parts), np.concatenate(test_parts))])

    if protocol == "CV":
        segments = {}
        for s in subj_ids:
            idx = by_subject[s]
            if idx.size < n_folds:
                raise ConfigError(
                    f"subject {s} has {idx.size} trials, fewer than {n_folds} folds"
                )
            base, rem = divmod(idx.size, n_folds)
            sizes = [base + 1 if k < rem else base for k in range(n_folds)]
            bounds = np.cumsum([0] + sizes)
            segments[s] = [idx[bounds[k] : bounds[k + 1]] for k in range(n_folds)]
        folds = []
        for k in range(n_folds):
            test = np.concatenate([segments[s][k] for s in subj_ids])
            mask = np.ones(epochs.n_trials, dtype=bool)
            mask[test] = False
            folds.append((all_idx[mask], test))
        return SplitPlan("CV", folds)

    if subj_ids.size < 2:
        raise ConfigError("LOSO needs at least two subjects")
    folds = []
    for s in subj_ids:
        test = by_subject[s]
        mask = np.ones(epochs.n_trials, dtype=bool)
        mask[test] = False
        folds.append((all_idx[mask], test))
    return SplitPlan("LOSO", folds)


def synth_spec_from_dict(raw: dict) -> SynthSpec:
    """Strict SynthSpec parser for config files."""
    known = {f.name for f in fields(SynthSpec)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown synth spec keys: {', '.join(unknown)}")
    kwargs = dict(raw)
    if "classes" in kwargs:
        recipes = []
        for i, item in enumerate(kwargs["classes"]):
            extra = sorted(set(item) - {"freq_hz", "channels", "amplitude"})
            if extra:
                raise ConfigError(f"unknown class recipe keys in class {i}: {', '.join(extra)}")
            if "freq_hz" not in item or "channels" not in item:
                raise ConfigError(f"class recipe {i} needs freq_hz and channels")
            recipes.append(ClassRecipe(float(item["freq_hz"]), tuple(item["channels"]),
                                       float(item.get("amplitude", 1.0))))
        kwargs["classes"] = tuple(recipes)
    return SynthSpec(**kwargs).validate()
