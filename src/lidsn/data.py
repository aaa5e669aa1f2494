"""Epoched EEG containers, file format, synthesis, alignment, features, splits.

The on-disk format (EEGB v1, little-endian) is:

    magic 'EEGB' | u16 version=1 | u32 n_trials | u16 n_channels |
    u32 n_samples | f32 fs | u16 n_classes |
    u16 labels[n_trials] | u16 subjects[n_trials] |
    f32 data[trial][channel][sample]

Every sample must be finite; a file holding NaN or infinity does not load.
The payload is streamed: save and load convert it in ~1 MiB chunks, so a file
is never held whole in memory beside its float64 data.

In memory data is float64; files store float32. Generated sets are rounded
through float32 so save/load round-trips are bit-exact; aligned sets keep full
f64 precision because their covariance post-condition is tighter than f32.
"""
from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataFormatError, NumericError

EEGB_MAGIC = b"EEGB"
EEGB_VERSION = 1
_HEADER = struct.Struct("<4sHIHIfH")
_CHUNK_BYTES = 1 << 20  # float32 payload converted per step on save and load

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


def _header_problem(n_trials: int, n_channels: int, n_samples: int, fs: float,
                    n_classes: int) -> str | None:
    """What an EEGB header cannot hold of these fields, or None if it holds them all."""
    for name, value, low, high in (("n_trials", n_trials, 0, 0xFFFFFFFF),
                                   ("n_channels", n_channels, 1, 0xFFFF),
                                   ("n_samples", n_samples, 1, 0xFFFFFFFF),
                                   ("n_classes", n_classes, 1, 0xFFFF)):
        if not low <= value <= high:
            return f"{name}={value} is outside [{low}, {high}]"
    with np.errstate(over="ignore"):
        fs32 = np.float32(fs)  # the header stores fs as float32
    if not 0 < fs32 < np.inf:
        return f"fs={fs} is not positive and finite as float32"
    return None


def save_epochs(path, epochs: EpochSet) -> None:
    for name, arr in (("labels", epochs.labels), ("subjects", epochs.subjects)):
        if arr.size and arr.max() > 0xFFFF:
            raise DataFormatError("bad_field", f"{name} exceed u16 range")
    problem = _header_problem(epochs.n_trials, epochs.n_channels, epochs.n_samples, epochs.fs,
                              epochs.n_classes)
    if problem:
        raise DataFormatError("bad_field", problem)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(EEGB_MAGIC, EEGB_VERSION, epochs.n_trials, epochs.n_channels,
                              epochs.n_samples, epochs.fs, epochs.n_classes))
        fh.write(epochs.labels.astype("<u2"))
        fh.write(epochs.subjects.astype("<u2"))
        step = max(1, _CHUNK_BYTES // max(1, 4 * epochs.n_channels * epochs.n_samples))
        for i in range(0, epochs.n_trials, step):
            fh.write(np.ascontiguousarray(epochs.data[i : i + step], dtype="<f4"))


def load_epochs(path) -> EpochSet:
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its size is known only once it is read
            fh = io.BytesIO(fh.read())
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataFormatError("truncated_header",
                                  f"file has {len(head)} bytes, header needs {_HEADER.size}")
        magic, version, n_trials, n_channels, n_samples, fs, n_classes = _HEADER.unpack(head)
        if magic != EEGB_MAGIC:
            raise DataFormatError("bad_magic", f"bad magic {magic!r}, expected {EEGB_MAGIC!r}")
        if version != EEGB_VERSION:
            raise DataFormatError("bad_version", f"unsupported format version {version}")
        problem = _header_problem(n_trials, n_channels, n_samples, fs, n_classes)
        if problem:
            raise DataFormatError("bad_field", problem)
        have = size - _HEADER.size
        need = n_trials * 2 * 2 + n_trials * n_channels * n_samples * 4
        if have < need:
            raise DataFormatError("truncated_payload", f"payload has {have} bytes, expected {need}")
        if have > need:
            raise DataFormatError("trailing_data", f"{have - need} trailing bytes")
        labels = np.frombuffer(fh.read(n_trials * 2), dtype="<u2").astype(np.int64)
        subjects = np.frombuffer(fh.read(n_trials * 2), dtype="<u2").astype(np.int64)
        data = np.empty((n_trials, n_channels, n_samples))
        flat = data.reshape(-1)
        buf = np.empty(_CHUNK_BYTES // 4, dtype="<f4")
        finite = np.empty(buf.size, dtype=bool)
        bad = 0
        for i in range(0, flat.size, buf.size):
            part = buf[: flat.size - i]
            if fh.readinto(part) != part.nbytes:  # the file shrank after its size was read
                raise DataFormatError("truncated_payload", f"payload ends before {need} bytes")
            bad += part.size - np.count_nonzero(np.isfinite(part, out=finite[: part.size]))
            if not bad:  # a refused set needs no widening, which warns on a signaling NaN
                flat[i : i + part.size] = part
    if bad:
        raise DataFormatError("non_finite", f"payload has {bad} non-finite samples")
    return EpochSet(data, labels, subjects, float(fs), int(n_classes))


# ---------------------------------------------------------------------------
# synthetic epochs


@dataclass(frozen=True)
class ClassRecipe:
    """One class's oscillation: carrier frequency on a set of channels."""

    freq_hz: float
    channels: tuple[int, ...]
    amplitude: float = 1.0


@dataclass(frozen=True)
class SynthSpec:
    n_subjects: int = 4
    trials_per_subject: int = 50
    n_channels: int = 8
    n_samples: int = 512
    fs: float = 128.0
    classes: tuple[ClassRecipe, ...] = (
        ClassRecipe(10.0, (2, 3), 1.0),
        ClassRecipe(22.0, (5, 6), 1.0),
    )
    pink_exponent: float = 1.0
    pink_sigma: float = 0.3
    white_sigma: float = 0.5
    gain_spread: float = 0.2
    freq_jitter_hz: float = 0.5

    def __post_init__(self):
        if self.n_subjects < 1 or self.trials_per_subject < 1:
            raise ConfigError("need at least one subject and one trial per subject")
        if self.n_subjects > 0x10000:  # files store subject ids as u16
            raise ConfigError(f"n_subjects must be at most 65536, got {self.n_subjects}")
        if len(self.classes) < 2:
            raise ConfigError(f"classes must hold at least 2 recipes, got {len(self.classes)}")
        problem = _header_problem(self.n_subjects * self.trials_per_subject, self.n_channels,
                                  self.n_samples, self.fs, len(self.classes))
        if problem:
            raise ConfigError(f"an EEGB file cannot store this set: {problem} (n_trials is "
                              f"n_subjects * trials_per_subject, n_classes is len(classes))")
        for i, r in enumerate(self.classes):
            bad = [c for c in r.channels if not 0 <= c < self.n_channels]
            if bad:
                raise ConfigError(f"class {i} uses channels {bad} outside [0, {self.n_channels})")
        if self.gain_spread < 0 or self.gain_spread >= 1:
            raise ConfigError("gain_spread must be in [0, 1)")
        if not self.freq_jitter_hz >= 0:
            raise ConfigError(f"freq_jitter_hz must be >= 0, got {self.freq_jitter_hz}")


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


@np.errstate(all="ignore")  # an overflow shows as a non-finite sample, rejected at the end
def synth_generate(spec: SynthSpec, seed: int) -> EpochSet:
    """Deterministic synthetic epochs: class oscillations plus 1/f and white noise.

    The same (spec, seed) pair reproduces the same bytes on any platform.
    Values are rounded through float32 so file round-trips are exact.
    """
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
            data[row] = trial_data.astype(np.float32)
            labels[row] = k
            subjects[row] = subj
            row += 1
    if not np.isfinite(data).all():
        raise ConfigError("synthetic samples overflow float32: lower pink_exponent or the "
                          "class amplitude")
    return EpochSet(data, labels, subjects, spec.fs, n_classes)


# ---------------------------------------------------------------------------
# Euclidean Alignment


def euclidean_align(epochs: EpochSet, fit_indices: np.ndarray | None = None) -> EpochSet:
    """Whiten each subject's trials by its mean trial covariance.

    Per subject: R = mean_i(X_i X_i^T / T) over the fit trials (that subject's
    rows of fit_indices, defaulting to all of its trials; subjects with no fit
    trials fall back to all of theirs), then every trial becomes R^{-1/2} X_i.
    The recomputed mean covariance of the aligned fit trials is the identity.
    Both matmuls are batched over all trials, so no subject's trials are copied.
    """
    if epochs.n_trials == 0:
        raise ConfigError("cannot align an empty epoch set")
    fit_mask = np.full(epochs.n_trials, fit_indices is None)
    if fit_indices is not None:
        fit_mask[np.asarray(fit_indices, dtype=np.int64)] = True
    x = np.ascontiguousarray(epochs.data)
    covs = x @ x.transpose(0, 2, 1)
    subject_ids, pos = np.unique(epochs.subjects, return_inverse=True)
    inv_sqrt = np.empty((subject_ids.size, epochs.n_channels, epochs.n_channels))
    for k, subj in enumerate(subject_ids):
        idx = np.flatnonzero(pos == k)
        fit = idx[fit_mask[idx]] if fit_mask[idx].any() else idx
        r = covs[fit].sum(axis=0) / (fit.size * epochs.n_samples)
        r = 0.5 * (r + r.T)
        vals, vecs = np.linalg.eigh(r)
        if vals.min() <= 0:
            r = r + 1e-10 * np.eye(epochs.n_channels)
            vals, vecs = np.linalg.eigh(r)
            if vals.min() <= 0:
                raise NumericError(f"subject {subj}: mean covariance is not positive definite")
        inv_sqrt[k] = (vecs / np.sqrt(vals)) @ vecs.T
    return EpochSet(inv_sqrt[pos] @ x, epochs.labels.copy(), epochs.subjects.copy(), epochs.fs,
                    epochs.n_classes)


# ---------------------------------------------------------------------------
# relative PSD features


def _segment_starts(n: int, window: int, hop: int) -> np.ndarray:
    return np.arange(0, n - window + 1, hop, dtype=np.int64)


@dataclass(frozen=True)
class FeatureArgs:
    """Window lengths in seconds and overlap fractions of the rPSD features."""

    outer_window_s: float = 20.0
    outer_overlap: float = 0.8
    inner_window_s: float = 2.0
    inner_overlap: float = 0.75

    def __post_init__(self):
        for name in ("outer", "inner"):
            overlap, seconds = getattr(self, f"{name}_overlap"), getattr(self, f"{name}_window_s")
            if not 0.0 <= overlap < 1.0:
                raise ConfigError(f"{name} overlap must lie in [0, 1), got {overlap}")
            if not seconds > 0:
                raise ConfigError(f"{name} window must be positive, got {seconds} s")


def rpsd_features(epochs: EpochSet, args: FeatureArgs = FeatureArgs()) -> EpochSet:
    """Relative band power features (DEFAULT_BANDS) on sliding windows.

    Each trial splits into outer segments (one output row each); each segment
    splits into overlapping sub-windows whose Hann periodogram is reduced to
    band powers, normalized to sum to one, z-scored per channel across the
    segment, and concatenated over (sub-window, band). Overlapping segments
    share sub-windows that start at the same sample; each distinct sub-window
    is transformed once per trial.
    """
    if epochs.n_trials == 0:
        raise ConfigError("cannot compute features of an empty epoch set")
    fs = epochs.fs
    for name, seconds in (("outer", args.outer_window_s), ("inner", args.inner_window_s)):
        if not np.isfinite(seconds * fs):
            raise ConfigError(f"{name} window of {seconds} s is not a finite number of samples")
    w_out = int(round(args.outer_window_s * fs))
    w_in = int(round(args.inner_window_s * fs))
    if w_out > epochs.n_samples:
        raise ConfigError(
            f"outer window of {w_out} samples exceeds trial length {epochs.n_samples}"
        )
    if w_in > w_out:
        raise ConfigError(f"inner window of {w_in} samples exceeds outer window {w_out}")
    if w_in < 3:
        # np.hanning(2) is [0, 0]: every periodogram of a 2-sample window is empty
        raise ConfigError(f"inner window of {w_in} samples is shorter than 3 samples")
    hop_out = max(1, int(round(w_out * (1.0 - args.outer_overlap))))
    hop_in = max(1, int(round(w_in * (1.0 - args.inner_overlap))))
    outer_starts = _segment_starts(epochs.n_samples, w_out, hop_out)
    inner_starts = _segment_starts(w_out, w_in, hop_in)
    n_seg, n_sub, n_ch = outer_starts.size, inner_starts.size, epochs.n_channels
    # starts[inverse[s, j]] is where sub-window j of segment s begins
    starts, inverse = np.unique(outer_starts[:, None] + inner_starts, return_inverse=True)
    inverse = inverse.reshape(n_seg, n_sub)
    window = np.hanning(w_in)
    freqs = np.fft.rfftfreq(w_in, d=1.0 / fs)
    band_matrix = np.array([(freqs >= lo) & (freqs <= hi) for lo, hi in DEFAULT_BANDS],
                           dtype=float).T

    out = np.empty((epochs.n_trials, n_seg, n_ch, n_sub * len(DEFAULT_BANDS)))
    for i in range(epochs.n_trials):
        subs = sliding_window_view(epochs.data[i], w_in, axis=1)[:, starts]
        subs *= window
        spectrum = np.fft.rfft(subs, axis=-1)
        powers = (spectrum.real ** 2 + spectrum.imag ** 2) @ band_matrix  # [C, starts, bands]
        totals = powers.sum(axis=-1, keepdims=True)
        if np.any(totals <= 0):
            # name the first (segment, sub-window, channel) in segment-loop order
            empty = (totals[:, :, 0] <= 0)[:, inverse]  # [C, segments, sub-windows]
            seg, sub = divmod(int(np.argmax(empty.any(axis=0))), n_sub)
            raise NumericError(f"trial {i} segment at {outer_starts[seg]}: zero spectral mass "
                               f"on channel {np.argmax(empty[:, seg, sub])}")
        flat = (powers / totals)[:, inverse].transpose(1, 0, 2, 3).reshape(n_seg, n_ch, -1)
        mu = flat.mean(axis=-1, keepdims=True)
        sd = flat.std(axis=-1, keepdims=True)
        sd[sd == 0] = 1.0
        np.divide(flat - mu, sd, out=out[i])
    return EpochSet(out.reshape(-1, n_ch, out.shape[-1]), np.repeat(epochs.labels, n_seg),
                    np.repeat(epochs.subjects, n_seg), fs, epochs.n_classes)


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
    if epochs.n_trials == 0:
        raise ConfigError("cannot split an empty epoch set")
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
        tests = [np.concatenate([segments[s][k] for s in subj_ids]) for k in range(n_folds)]
    else:
        if subj_ids.size < 2:
            raise ConfigError("LOSO needs at least two subjects")
        tests = [by_subject[s] for s in subj_ids]
    folds = []
    for test in tests:
        mask = np.ones(epochs.n_trials, dtype=bool)
        mask[test] = False
        folds.append((all_idx[mask], test))
    return SplitPlan(protocol, folds)
