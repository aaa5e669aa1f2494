"""Epoch container, binary format, synthesis, alignment, features, splits."""
import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power
from scipy.signal import periodogram

from lidsn.data import (
    DEFAULT_BANDS,
    ClassRecipe,
    EpochSet,
    FeatureArgs,
    SynthSpec,
    euclidean_align,
    load_epochs,
    make_split,
    rpsd_features,
    save_epochs,
    synth_generate,
)
from lidsn.config import from_dict
from lidsn.errors import ConfigError, DataFormatError, NumericError

HEADER = struct.Struct("<4sHIHIfH")


def small_spec(**kw):
    base = dict(n_subjects=2, trials_per_subject=6, n_channels=4, n_samples=256,
                fs=128.0, classes=(ClassRecipe(10.0, (0, 1)), ClassRecipe(22.0, (2,))))
    base.update(kw)
    return SynthSpec(**base)


def clean_spec(**kw):
    """No noise, no per-subject variation: trials are pure carriers."""
    base = dict(pink_sigma=0.0, white_sigma=0.0, gain_spread=0.0, freq_jitter_hz=0.0)
    base.update(kw)
    return small_spec(**base)


# ---------------------------------------------------------------------------
# container


def test_epochset_validates_shapes():
    with pytest.raises(DataFormatError) as e:
        EpochSet(np.zeros((2, 3)), np.zeros(2), np.zeros(2), 100.0, 2)
    assert e.value.kind == "bad_field"
    with pytest.raises(DataFormatError):
        EpochSet(np.zeros((2, 3, 4)), np.zeros(3), np.zeros(2), 100.0, 2)


def test_epochset_validates_label_range():
    with pytest.raises(DataFormatError) as e:
        EpochSet(np.zeros((2, 1, 4)), np.array([0, 2]), np.zeros(2), 100.0, 2)
    assert e.value.kind == "label_out_of_range"


# ---------------------------------------------------------------------------
# binary round-trips


def test_save_load_roundtrip_bit_exact(tmp_path):
    e = synth_generate(small_spec(), seed=4)
    path = tmp_path / "e.eegb"
    save_epochs(path, e)
    back = load_epochs(path)
    assert np.array_equal(back.data, e.data)
    assert np.array_equal(back.labels, e.labels)
    assert np.array_equal(back.subjects, e.subjects)
    assert back.fs == e.fs
    assert back.n_classes == e.n_classes


def test_save_writes_header_labels_subjects_payload(tmp_path):
    data = np.array([[[1.5, -2.0, 0.25], [3.0, 0.5, -7.0]],
                     [[0.0, 8.0, -1.0], [2.5, 1.0, 4.0]]])
    e = EpochSet(data, np.array([1, 0]), np.array([3, 5]), 64.0, 2)
    path = tmp_path / "e.eegb"
    save_epochs(path, e)
    want = (HEADER.pack(b"EEGB", 1, 2, 2, 3, 64.0, 2)
            + struct.pack("<2H", 1, 0) + struct.pack("<2H", 3, 5)
            + struct.pack("<12f", *data.ravel()))
    assert path.read_bytes() == want


def _long_set():
    """67 trials of 8 x 4096 samples: an 8.4 MiB float32 payload, written in
    several chunks with a short last one."""
    data = np.random.default_rng(5).standard_normal((67, 8, 4096))
    return EpochSet(data, np.arange(67) % 2, np.arange(67) // 30, 256.0, 2)


def test_chunked_save_writes_the_one_shot_bytes(tmp_path):
    e = _long_set()
    path = tmp_path / "long.eegb"
    save_epochs(path, e)
    want = (HEADER.pack(b"EEGB", 1, 67, 8, 4096, 256.0, 2)
            + e.labels.astype("<u2").tobytes() + e.subjects.astype("<u2").tobytes()
            + e.data.astype("<f4").tobytes())
    assert path.read_bytes() == want


def test_save_peaks_well_under_the_payload(tmp_path):
    e = _long_set()
    payload = e.data.size * 4
    tracemalloc.start()
    try:
        save_epochs(tmp_path / "long.eegb", e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload / 4, peak / payload


def _long_file(tmp_path):
    e = _long_set()
    path = tmp_path / "long.eegb"
    save_epochs(path, e)
    return e, path


def _payload_offset(e):
    return HEADER.size + 4 * e.n_trials


def test_load_peaks_near_its_float64_result(tmp_path):
    # the payload streams through a small buffer; holding the whole file
    # beside the result peaked at 1.5x
    e, path = _long_file(tmp_path)
    tracemalloc.start()
    try:
        back = load_epochs(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, e.data.astype("<f4").astype(np.float64))
    assert peak < 1.15 * back.data.nbytes, peak / back.data.nbytes


def test_load_counts_non_finite_samples_in_every_chunk(tmp_path):
    e, path = _long_file(tmp_path)
    blob = bytearray(path.read_bytes())
    off = _payload_offset(e)
    n = e.data.size
    # the first sample, the first of the second MiB and the last sample
    for i, value in ((0, np.nan), (1 << 18, np.inf), (n - 1, np.nan)):
        blob[off + 4 * i : off + 4 * i + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="^payload has 3 non-finite samples$") as exc:
        load_epochs(path)
    assert exc.value.kind == "non_finite"


def test_load_size_errors_precede_the_non_finite_scan(tmp_path):
    e, path = _long_file(tmp_path)
    blob = bytearray(path.read_bytes())
    off = _payload_offset(e)
    blob[off : off + 4] = np.array([np.nan], dtype="<f4").tobytes()
    need = len(blob) - HEADER.size
    cut = off + 4 * ((3 << 18) + (1 << 17)) + 2  # mid-chunk, mid-sample
    path.write_bytes(bytes(blob[:cut]))
    with pytest.raises(DataFormatError, match=f"^payload has {cut - HEADER.size} bytes, "
                                              f"expected {need}$") as exc:
        load_epochs(path)
    assert exc.value.kind == "truncated_payload"
    path.write_bytes(bytes(blob) + b"\x01\x02\x03\x04\x05")
    with pytest.raises(DataFormatError, match="^5 trailing bytes$") as exc:
        load_epochs(path)
    assert exc.value.kind == "trailing_data"


def test_load_reads_a_pipe(tmp_path):
    # a pipe has no size until it is read; sizing it by its file length failed
    e = synth_generate(small_spec(), seed=4)
    save_epochs(tmp_path / "e.eegb", e)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / "e.eegb").read_bytes(),),
                              daemon=True)
    writer.start()
    back = load_epochs(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back.data, e.data) and np.array_equal(back.subjects, e.subjects)


def test_load_hand_built_file(tmp_path):
    data = np.array([[[1.5, -2.0, 0.25]], [[0.0, 8.0, -1.0]]], dtype=np.float32)
    blob = (HEADER.pack(b"EEGB", 1, 2, 1, 3, 100.0, 2)
            + np.array([0, 1], dtype="<u2").tobytes()
            + np.array([0, 0], dtype="<u2").tobytes()
            + data.astype("<f4").tobytes())
    path = tmp_path / "hand.eegb"
    path.write_bytes(blob)
    e = load_epochs(path)
    assert e.n_trials == 2 and e.n_channels == 1 and e.n_samples == 3
    assert e.fs == 100.0 and e.n_classes == 2
    assert np.array_equal(e.data, data.astype(np.float64))
    assert np.array_equal(e.labels, [0, 1])


def valid_blob():
    data = np.arange(12, dtype="<f4")
    return (HEADER.pack(b"EEGB", 1, 2, 2, 3, 100.0, 2)
            + np.array([0, 1], dtype="<u2").tobytes()
            + np.array([0, 0], dtype="<u2").tobytes()
            + data.tobytes())


def _load_bytes(tmp_path, blob):
    path = tmp_path / "c.eegb"
    path.write_bytes(blob)
    return load_epochs(path)


def test_corrupt_bad_magic(tmp_path):
    blob = b"XEGB" + valid_blob()[4:]
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, blob)
    assert e.value.kind == "bad_magic"


def test_corrupt_bad_version(tmp_path):
    good = valid_blob()
    blob = good[:4] + struct.pack("<H", 9) + good[6:]
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, blob)
    assert e.value.kind == "bad_version"


def test_corrupt_truncated_header(tmp_path):
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, valid_blob()[:10])
    assert e.value.kind == "truncated_header"


def test_corrupt_truncated_payload(tmp_path):
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, valid_blob()[:-4])
    assert e.value.kind == "truncated_payload"


def test_corrupt_trailing_data(tmp_path):
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, valid_blob() + b"\x00\x00\x00")
    assert e.value.kind == "trailing_data"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_corrupt_non_finite_sample(tmp_path, value):
    data = np.arange(12, dtype="<f4")
    data[7] = value
    blob = valid_blob()[:-data.nbytes] + data.tobytes()
    with pytest.raises(DataFormatError, match="1 non-finite samples") as e:
        _load_bytes(tmp_path, blob)
    assert e.value.kind == "non_finite"


def test_corrupt_label_out_of_range(tmp_path):
    good = valid_blob()
    bad_labels = np.array([0, 5], dtype="<u2").tobytes()
    blob = good[:HEADER.size] + bad_labels + good[HEADER.size + 4:]
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, blob)
    assert e.value.kind == "label_out_of_range"


def test_corrupt_zero_channel_header(tmp_path):
    good = valid_blob()
    # n_channels lives after magic(4) + version(2) + n_trials(4)
    blob = good[:10] + struct.pack("<H", 0) + good[12:]
    with pytest.raises(DataFormatError) as e:
        _load_bytes(tmp_path, blob)
    assert e.value.kind == "bad_field"


def test_every_truncation_and_byte_flip_loads_or_fails_typed(tmp_path, corruptions):
    # 4 trials of 3 x 8 samples: a 422-byte file, every byte of it corrupted
    spec = small_spec(trials_per_subject=2, n_channels=3, n_samples=8, fs=8.0,
                      classes=(ClassRecipe(1.0, (0,)), ClassRecipe(2.0, (1,))))
    path = tmp_path / "e.eegb"
    save_epochs(path, synth_generate(spec, seed=0))
    assert path.stat().st_size == 422
    failures = []
    for case in corruptions(path, range(422)):
        try:
            load_epochs(path)
        except DataFormatError:
            pass
        except Exception as exc:  # any other exception is a failure
            failures.append(f"{case}: {exc!r}")
    assert not failures, failures[:5]


def test_save_rejects_u16_overflow(tmp_path):
    e = EpochSet(np.zeros((1, 1, 2)), np.array([0]), np.array([70000]), 10.0, 1)
    with pytest.raises(DataFormatError) as exc:
        save_epochs(tmp_path / "x.eegb", e)
    assert exc.value.kind == "bad_field"


@pytest.mark.parametrize("shape, n_classes, fs", [
    ((1, 1, 2), 0x10000, 10.0), ((1, 1, 2), 2, 1e300), ((1, 1, 2), 2, 1e-300),
    ((1, 0, 2), 2, 10.0), ((1, 1, 0), 2, 10.0),
], ids=["n_classes_above_u16", "fs_f32_overflow", "fs_f32_underflow", "zero_channels",
        "zero_samples"])
def test_save_rejects_header_fields_out_of_range_before_writing(tmp_path, shape, n_classes, fs):
    # the header stores n_classes as u16 and fs as f32, and load refuses a file
    # with no channel or no sample; a bad field leaves no file
    e = EpochSet(np.zeros(shape), np.array([0]), np.array([0]), fs, n_classes)
    path = tmp_path / "x.eegb"
    with pytest.raises(DataFormatError) as exc:
        save_epochs(path, e)
    assert exc.value.kind == "bad_field"
    assert not path.exists()


# ---------------------------------------------------------------------------
# synthesis


def test_synth_is_deterministic():
    a = synth_generate(small_spec(), seed=7)
    b = synth_generate(small_spec(), seed=7)
    c = synth_generate(small_spec(), seed=8)
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.data, c.data)


def test_synth_labels_balanced_and_round_robin():
    e = synth_generate(small_spec(), seed=1)
    assert e.n_trials == 12
    assert np.array_equal(e.labels, np.tile([0, 1], 6))
    assert np.array_equal(e.subjects, np.repeat([0, 1], 6))
    counts = np.bincount(e.labels, minlength=2)
    assert counts[0] == counts[1] == 6


def test_synth_clean_inactive_channels_are_silent():
    e = synth_generate(clean_spec(), seed=2)
    # channel 3 belongs to no recipe; without noise it stays exactly zero
    assert np.all(e.data[:, 3, :] == 0.0)
    # class-0 trials carry nothing on class-1 channels and vice versa
    assert np.all(e.data[e.labels == 0][:, 2, :] == 0.0)
    assert np.all(e.data[e.labels == 1][:, 0, :] == 0.0)


def test_synth_clean_carrier_lands_on_recipe_frequency():
    e = synth_generate(clean_spec(), seed=3)
    for label, chan, f_want in ((0, 0, 10.0), (1, 2, 22.0)):
        trial = np.where(e.labels == label)[0][0]
        freqs, psd = periodogram(e.data[trial, chan], fs=e.fs)
        assert freqs[np.argmax(psd)] == pytest.approx(f_want, abs=e.fs / e.n_samples)


def test_synth_amplitude_scales_carrier():
    loud = clean_spec(classes=(ClassRecipe(10.0, (0,), 3.0), ClassRecipe(22.0, (2,), 1.0)))
    quiet = clean_spec(classes=(ClassRecipe(10.0, (0,), 1.0), ClassRecipe(22.0, (2,), 1.0)))
    a = synth_generate(loud, seed=5)
    b = synth_generate(quiet, seed=5)
    t0 = np.where(a.labels == 0)[0][0]
    ratio = np.abs(a.data[t0, 0]).max() / np.abs(b.data[t0, 0]).max()
    assert ratio == pytest.approx(3.0, rel=1e-5)


def test_synth_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(classes=(ClassRecipe(10.0, (9,)), ClassRecipe(22.0, (0,))))
    with pytest.raises(ConfigError):
        small_spec(n_subjects=0)
    with pytest.raises(ConfigError):
        small_spec(classes=(ClassRecipe(10.0, (0,)),))


def test_synth_spec_from_dict_roundtrip():
    spec = from_dict(SynthSpec, {
        "n_subjects": 3,
        "classes": [{"freq_hz": 9.0, "channels": [1]},
                    {"freq_hz": 20.0, "channels": [2], "amplitude": 0.5}],
    })
    assert spec.n_subjects == 3
    assert spec.classes[1].amplitude == 0.5
    with pytest.raises(ConfigError):
        from_dict(SynthSpec, {"bogus": 1})
    with pytest.raises(ConfigError):
        from_dict(SynthSpec, {"classes": [{"freq_hz": 9.0}]})


# ---------------------------------------------------------------------------
# Euclidean Alignment


def test_align_matches_matrix_power_oracle():
    e = synth_generate(small_spec(n_subjects=1), seed=9)
    aligned = euclidean_align(e)
    x = e.data
    r = np.mean([xi @ xi.T / e.n_samples for xi in x], axis=0)
    inv_sqrt = fractional_matrix_power(r, -0.5).real
    for i in range(e.n_trials):
        assert np.abs(aligned.data[i] - inv_sqrt @ x[i]).max() < 1e-8


def test_align_whitens_mean_covariance():
    e = synth_generate(small_spec(), seed=10)
    aligned = euclidean_align(e)
    for s in (0, 1):
        idx = np.where(e.subjects == s)[0]
        covs = [xi @ xi.T / e.n_samples for xi in aligned.data[idx]]
        r = np.mean(covs, axis=0)
        assert np.linalg.norm(r - np.eye(e.n_channels)) < 1e-8


def test_align_is_idempotent():
    e = synth_generate(small_spec(), seed=11)
    once = euclidean_align(e)
    twice = euclidean_align(once)
    assert np.abs(twice.data - once.data).max() < 1e-8


def test_align_fit_indices_transform_everything():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=8), seed=12)
    fit = np.arange(6)
    aligned = euclidean_align(e, fit_indices=fit)
    x = e.data
    r = np.mean([x[i] @ x[i].T / e.n_samples for i in fit], axis=0)
    inv_sqrt = fractional_matrix_power(r, -0.5).real
    # held-out trials get the same subject matrix
    assert np.abs(aligned.data[7] - inv_sqrt @ x[7]).max() < 1e-8
    covs = [aligned.data[i] @ aligned.data[i].T / e.n_samples for i in fit]
    assert np.linalg.norm(np.mean(covs, axis=0) - np.eye(e.n_channels)) < 1e-8


def test_align_subject_without_fit_rows_falls_back():
    e = synth_generate(small_spec(), seed=13)
    fit = np.where(e.subjects == 0)[0]  # subject 1 contributes no fit rows
    aligned = euclidean_align(e, fit_indices=fit)
    idx = np.where(e.subjects == 1)[0]
    covs = [aligned.data[i] @ aligned.data[i].T / e.n_samples for i in idx]
    assert np.linalg.norm(np.mean(covs, axis=0) - np.eye(e.n_channels)) < 1e-8


def test_align_interleaved_subjects_match_oracle():
    # subjects 0 and 1 interleave; fit rows span both; subject 2 has none
    rng = np.random.default_rng(23)
    subjects = np.array([0, 1, 0, 2, 1, 0, 1, 2, 0, 1])
    e = EpochSet(rng.normal(size=(10, 3, 32)), np.zeros(10), subjects, 10.0, 1)
    fit = np.array([1, 2, 4, 5, 8])
    aligned = euclidean_align(e, fit_indices=fit)
    for s in (0, 1, 2):
        rows = np.where(subjects == s)[0]
        fit_rows = np.intersect1d(rows, fit) if s != 2 else rows
        r = np.mean([e.data[i] @ e.data[i].T / 32 for i in fit_rows], axis=0)
        inv_sqrt = fractional_matrix_power(r, -0.5).real
        for i in rows:
            assert np.abs(aligned.data[i] - inv_sqrt @ e.data[i]).max() < 1e-8


def test_align_rejects_empty():
    e = EpochSet(np.zeros((0, 2, 4)), np.zeros(0), np.zeros(0), 10.0, 2)
    with pytest.raises(ConfigError):
        euclidean_align(e)


def test_align_survives_exactly_singular_covariance():
    # an all-zero channel gives the covariance an exactly-zero eigenvalue;
    # the diagonal jitter retry must keep the result finite
    data = np.random.default_rng(0).normal(size=(3, 2, 16))
    data[:, 1, :] = 0.0
    e = EpochSet(data, np.zeros(3), np.zeros(3), 10.0, 1)
    aligned = euclidean_align(e)
    assert np.all(np.isfinite(aligned.data))


def reference_align(e, fit_indices=None):
    """The per-subject loop: copy each subject's trials, whiten, scatter back."""
    fit_mask = np.full(e.n_trials, fit_indices is None)
    if fit_indices is not None:
        fit_mask[np.asarray(fit_indices, dtype=np.int64)] = True
    aligned = np.empty_like(e.data)
    for subj in np.unique(e.subjects):
        idx = np.where(e.subjects == subj)[0]
        fit = idx[fit_mask[idx]]
        if fit.size == 0:
            fit = idx
        x = e.data[fit]
        r = (x @ x.transpose(0, 2, 1)).sum(axis=0) / (fit.size * e.n_samples)
        r = 0.5 * (r + r.T)
        vals, vecs = np.linalg.eigh(r)
        if vals.min() <= 0:
            r = r + 1e-10 * np.eye(e.n_channels)
            vals, vecs = np.linalg.eigh(r)
        aligned[idx] = np.matmul((vecs / np.sqrt(vals)) @ vecs.T, e.data[idx])
    return aligned


def _interleaved_set(n=41, c=5, t=203, n_subjects=4, seed=31):
    rng = np.random.default_rng(seed)
    return EpochSet(rng.normal(size=(n, c, t)), np.zeros(n), rng.integers(0, n_subjects, n),
                    10.0, 1)


def _singular_set():
    data = np.random.default_rng(4).normal(size=(8, 3, 40))
    data[:4, 1, :] = 0.0  # subject 0's covariance has an exactly-zero eigenvalue
    return EpochSet(data, np.zeros(8), np.arange(8) // 4, 10.0, 1)


@pytest.mark.parametrize("make, fit", [
    (lambda: synth_generate(small_spec(n_subjects=3), seed=14), None),
    (lambda: synth_generate(small_spec(n_subjects=3), seed=14), np.arange(0, 18, 3)),
    (_interleaved_set, None),
    (_interleaved_set, np.arange(0, 41, 2)),
    # subject 3 contributes no fit rows and falls back to all of its own
    (_interleaved_set, np.flatnonzero(_interleaved_set().subjects != 3)),
    (_singular_set, None),
    (_singular_set, np.array([0, 1, 5])),
], ids=["contiguous", "contiguous-fit", "interleaved", "interleaved-fit",
        "subject-without-fit-rows", "singular", "singular-fit"])
def test_align_equals_the_per_subject_loop_bit_for_bit(make, fit):
    e = make()
    assert np.array_equal(euclidean_align(e, fit_indices=fit).data, reference_align(e, fit))


def test_align_peaks_near_its_output():
    # no per-subject copy of the [n, C, T] trials; only [n, C, C] stacks
    e = EpochSet(np.random.default_rng(8).normal(size=(60, 6, 2000)), np.zeros(60),
                 np.arange(60) % 5, 100.0, 1)
    tracemalloc.start()
    try:
        out = euclidean_align(e, fit_indices=np.arange(0, 60, 2)).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, peak / out.nbytes


# ---------------------------------------------------------------------------
# relative PSD features

FEATURE_ARGS = FeatureArgs(outer_window_s=2.0, outer_overlap=0.5,
                           inner_window_s=1.0, inner_overlap=0.75)


def oracle_rpsd(e, args, bands=DEFAULT_BANDS):
    """Re-derivation with an explicit DFT matrix instead of an FFT."""
    w_out = int(round(args.outer_window_s * e.fs))
    w_in = int(round(args.inner_window_s * e.fs))
    hop_out = max(1, int(round(w_out * (1.0 - args.outer_overlap))))
    hop_in = max(1, int(round(w_in * (1.0 - args.inner_overlap))))
    n_freq = w_in // 2 + 1
    k = np.arange(n_freq)[:, None]
    n = np.arange(w_in)[None, :]
    dft = np.exp(-2j * np.pi * k * n / w_in)
    freqs = k[:, 0] * e.fs / w_in
    masks = [(freqs >= lo) & (freqs <= hi) for lo, hi in bands]
    hann = np.hanning(w_in)
    rows = []
    for i in range(e.n_trials):
        for start in range(0, e.n_samples - w_out + 1, hop_out):
            feats = []
            for s0 in range(0, w_out - w_in + 1, hop_in):
                sub = e.data[i, :, start + s0 : start + s0 + w_in] * hann
                psd = np.abs(sub @ dft.T) ** 2
                p = np.stack([psd[:, m].sum(1) for m in masks], axis=1)
                assert np.allclose(p.sum(1) / p.sum(1), 1.0)
                feats.append(p / p.sum(1, keepdims=True))
            flat = np.stack(feats, axis=1).reshape(e.n_channels, -1)
            mu, sd = flat.mean(1, keepdims=True), flat.std(1, keepdims=True)
            sd[sd == 0] = 1.0
            rows.append((flat - mu) / sd)
    return np.stack(rows)


def test_rpsd_matches_dft_oracle():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=4), seed=14)
    got = rpsd_features(e, FEATURE_ARGS)
    want = oracle_rpsd(e, FEATURE_ARGS)
    assert got.data.shape == want.shape
    assert np.abs(got.data - want).max() < 1e-9


@pytest.mark.parametrize("fs, n_samples, args", [
    (128.0, 256, FEATURE_ARGS),
    (128.0, 30 * 128, FeatureArgs()),
    (50.0, 160, FeatureArgs(outer_window_s=2.0, inner_window_s=0.9, inner_overlap=0.5)),
    (40.0, 45, FeatureArgs(outer_window_s=1.0, inner_window_s=0.075, inner_overlap=0.0)),
], ids=["even_128", "default_args_30s", "odd_45", "odd_3"])
def test_rpsd_numpy_fft_equals_scipy_fft_bitwise(monkeypatch, fs, n_samples, args):
    # scipy.fft.rfft is the reference transform: numpy's must give the same bits
    data = np.random.default_rng(7).normal(size=(2, 3, n_samples))
    e = EpochSet(data, np.array([0, 1]), np.array([0, 0]), fs, 2)
    got = rpsd_features(e, args).data
    monkeypatch.setattr(np.fft, "rfft", scipy.fft.rfft)
    assert np.array_equal(got, rpsd_features(e, args).data)


# a 2-sample Hann window is all zeros, so inner windows start at 3 samples
@given(n_trials=st.integers(1, 2), n_channels=st.integers(1, 3), w_in=st.integers(3, 24),
       extra_out=st.integers(0, 24), extra_t=st.integers(0, 24),
       outer_overlap=st.sampled_from([0.0, 0.3, 0.5, 0.75, 0.9]),
       inner_overlap=st.sampled_from([0.0, 0.25, 0.5, 0.6, 0.9]),
       custom_bands=st.booleans(), seed=st.integers(0, 2**16))
# hops that do not tile (outer hop 5, inner hop 4)
@example(n_trials=2, n_channels=2, w_in=8, extra_out=12, extra_t=13, outer_overlap=0.75,
         inner_overlap=0.5, custom_bands=False, seed=0)
# a single segment
@example(n_trials=1, n_channels=2, w_in=8, extra_out=8, extra_t=0, outer_overlap=0.5,
         inner_overlap=0.5, custom_bands=False, seed=1)
# inner window == outer window
@example(n_trials=2, n_channels=3, w_in=16, extra_out=0, extra_t=20, outer_overlap=0.5,
         inner_overlap=0.5, custom_bands=False, seed=2)
# zero overlaps
@example(n_trials=2, n_channels=2, w_in=6, extra_out=6, extra_t=24, outer_overlap=0.0,
         inner_overlap=0.0, custom_bands=False, seed=3)
# a custom band list with a one-bin band
@example(n_trials=2, n_channels=2, w_in=16, extra_out=16, extra_t=16, outer_overlap=0.5,
         inner_overlap=0.75, custom_bands=True, seed=4)
@settings(max_examples=40, deadline=None)
def test_rpsd_property_matches_dft_oracle(n_trials, n_channels, w_in, extra_out, extra_t,
                                          outer_overlap, inner_overlap, custom_bands, seed):
    fs = 32.0
    w_out = w_in + extra_out
    data = np.random.default_rng(seed).normal(size=(n_trials, n_channels, w_out + extra_t))
    e = EpochSet(data, np.arange(n_trials), np.arange(n_trials) + 5, fs, n_trials)
    bands = DEFAULT_BANDS
    if custom_bands:
        # bin 1 alone, then every bin above it
        bin1 = fs / w_in
        bands = ((0.99 * bin1, 1.01 * bin1), (1.5 * bin1, fs / 2))
    args = FeatureArgs(outer_window_s=w_out / fs, outer_overlap=outer_overlap,
                       inner_window_s=w_in / fs, inner_overlap=inner_overlap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lidsn.data.DEFAULT_BANDS", bands)  # the band set rpsd_features reads
        got = rpsd_features(e, args)
    want = oracle_rpsd(e, args, bands)
    assert got.data.shape == want.shape
    assert np.abs(got.data - want).max() < 1e-9
    rows = want.shape[0] // n_trials
    assert np.array_equal(got.labels, np.repeat(e.labels, rows))
    assert np.array_equal(got.subjects, np.repeat(e.subjects, rows))


def test_rpsd_zero_mass_names_first_segment_and_channel():
    # T=512: segments at 0, 128 and 256, sub-windows 32 apart. In trial 2,
    # channel 1 is silent from sample 300, so the first fully silent
    # sub-window starts at 320 in the segment at 256; channel 0 is silent
    # only in a later sub-window of that segment
    data = np.random.default_rng(24).normal(size=(3, 2, 512))
    data[2, 1, 300:] = 0.0
    data[2, 0, 380:] = 0.0
    e = EpochSet(data, np.zeros(3), np.zeros(3), 128.0, 1)
    want = "trial 2 segment at 256: zero spectral mass on channel 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=f"^{re.escape(want)}$"):
            rpsd_features(e, FEATURE_ARGS)


def test_rpsd_geometry_and_metadata():
    e = synth_generate(small_spec(), seed=15)
    f = rpsd_features(e, FEATURE_ARGS)
    # T=256 at 128 Hz: outer 256/hop 128 -> 1 segment; inner 128/hop 32 -> 5 sub-windows
    assert f.data.shape == (e.n_trials, e.n_channels, 5 * len(DEFAULT_BANDS))
    assert np.array_equal(f.labels, e.labels)
    assert np.array_equal(f.subjects, e.subjects)


def test_rpsd_rows_are_zscored_per_channel():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=2), seed=16)
    f = rpsd_features(e, FEATURE_ARGS)
    assert np.abs(f.data.mean(-1)).max() < 1e-12
    assert np.abs(f.data.std(-1) - 1.0).max() < 1e-12


def test_rpsd_sinusoid_peaks_in_alpha_band():
    # faint white noise gives every channel spectral mass; the 10 Hz carrier
    # still dominates its channel by orders of magnitude
    e = synth_generate(clean_spec(n_subjects=1, trials_per_subject=4,
                                  white_sigma=0.01), seed=17)
    f = rpsd_features(e, FEATURE_ARGS)
    n_bands = len(DEFAULT_BANDS)
    alpha = DEFAULT_BANDS.index((8.0, 12.0))
    rows_per_trial = f.n_trials // e.n_trials
    for trial in np.where(e.labels == 0)[0]:
        per_band = f.data[trial * rows_per_trial, 0].reshape(-1, n_bands)
        assert np.all(per_band.argmax(axis=1) == alpha)


def test_rpsd_errors():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=2), seed=18)
    with pytest.raises(ConfigError):
        rpsd_features(e, FeatureArgs(outer_window_s=100.0))
    with pytest.raises(ConfigError):
        rpsd_features(e, FeatureArgs(outer_window_s=1.0, inner_window_s=2.0))
    zeros = EpochSet(np.zeros((1, 2, 256)), np.zeros(1), np.zeros(1), 128.0, 1)
    with pytest.raises(NumericError):
        rpsd_features(zeros, FEATURE_ARGS)


# ---------------------------------------------------------------------------
# splits


def test_split_co_respects_fraction_and_order():
    e = synth_generate(small_spec(trials_per_subject=10), seed=19)
    plan = make_split(e, "CO", train_fraction=0.8)
    assert plan.protocol == "CO" and len(plan.folds) == 1
    train, test = plan.folds[0]
    assert train.size == 16 and test.size == 4
    for s in (0, 1):
        tr = train[e.subjects[train] == s]
        te = test[e.subjects[test] == s]
        assert tr.size == 8 and te.size == 2
        assert tr.max() < te.min()


def test_split_cv_segment_sizes():
    e = synth_generate(small_spec(trials_per_subject=12), seed=20)
    plan = make_split(e, "CV", n_folds=5)
    sizes = []
    for train, test in plan.folds:
        assert train.size + test.size == e.n_trials
        sizes.append(int(np.sum(e.subjects[test] == 0)))
    assert sizes == [3, 3, 2, 2, 2]


def test_split_loso_holds_out_whole_subjects():
    e = synth_generate(small_spec(n_subjects=3), seed=21)
    plan = make_split(e, "LOSO")
    assert len(plan.folds) == 3
    for k, (train, test) in enumerate(plan.folds):
        assert set(e.subjects[test]) == {k}
        assert k not in set(e.subjects[train])


@given(n_subjects=st.integers(2, 4), trials=st.integers(5, 20),
       protocol=st.sampled_from(["CV", "LOSO"]))
@settings(max_examples=20, deadline=None)
def test_split_folds_partition_all_trials(n_subjects, trials, protocol):
    n = n_subjects * trials
    e = EpochSet(np.zeros((n, 1, 4)), np.zeros(n),
                 np.repeat(np.arange(n_subjects), trials), 10.0, 1)
    plan = make_split(e, protocol, n_folds=5)
    seen = np.zeros(n, dtype=int)
    for train, test in plan.folds:
        assert np.intersect1d(train, test).size == 0
        seen[test] += 1
    assert np.all(seen == 1)


def test_split_errors():
    e = synth_generate(small_spec(trials_per_subject=3), seed=22)
    with pytest.raises(ConfigError):
        make_split(e, "CV", n_folds=5)
    with pytest.raises(ConfigError):
        make_split(e, "CO", train_fraction=0.05)
    rows = e.subjects == 0
    single = EpochSet(e.data[rows], e.labels[rows], e.subjects[rows], e.fs, e.n_classes)
    with pytest.raises(ConfigError):
        make_split(single, "LOSO")
    with pytest.raises(ConfigError):
        make_split(e, "bogus")
