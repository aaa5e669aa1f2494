"""Epoch container, binary format, synthesis, alignment, features, splits."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power
from scipy.signal import periodogram

from lidsn.data import (
    DEFAULT_BANDS,
    ClassRecipe,
    EpochSet,
    SynthSpec,
    euclidean_align,
    load_epochs,
    make_split,
    rpsd_features,
    save_epochs,
    synth_generate,
    synth_spec_from_dict,
)
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


def test_epochset_subset_keeps_metadata():
    e = synth_generate(small_spec(), seed=0)
    sub = e.subset(np.array([1, 3, 5]))
    assert sub.n_trials == 3
    assert np.array_equal(sub.labels, e.labels[[1, 3, 5]])
    assert sub.fs == e.fs and sub.n_classes == e.n_classes


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


def test_save_rejects_u16_overflow(tmp_path):
    e = EpochSet(np.zeros((1, 1, 2)), np.array([0]), np.array([70000]), 10.0, 1)
    with pytest.raises(DataFormatError) as exc:
        save_epochs(tmp_path / "x.eegb", e)
    assert exc.value.kind == "bad_field"


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
        small_spec(classes=(ClassRecipe(10.0, (9,)), ClassRecipe(22.0, (0,)))).validate()
    with pytest.raises(ConfigError):
        small_spec(n_subjects=0).validate()
    with pytest.raises(ConfigError):
        small_spec(classes=(ClassRecipe(10.0, (0,)),)).validate()


def test_synth_spec_from_dict_roundtrip():
    spec = synth_spec_from_dict({
        "n_subjects": 3,
        "classes": [{"freq_hz": 9.0, "channels": [1]},
                    {"freq_hz": 20.0, "channels": [2], "amplitude": 0.5}],
    })
    assert spec.n_subjects == 3
    assert spec.classes[1].amplitude == 0.5
    with pytest.raises(ConfigError):
        synth_spec_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        synth_spec_from_dict({"classes": [{"freq_hz": 9.0}]})


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


# ---------------------------------------------------------------------------
# relative PSD features

FEATURE_ARGS = dict(outer_window_s=2.0, outer_overlap=0.5,
                    inner_window_s=1.0, inner_overlap=0.75)


def oracle_rpsd(e, outer_window_s, outer_overlap, inner_window_s, inner_overlap,
                bands=DEFAULT_BANDS):
    """Re-derivation with an explicit DFT matrix instead of an FFT."""
    w_out = int(round(outer_window_s * e.fs))
    w_in = int(round(inner_window_s * e.fs))
    hop_out = max(1, int(round(w_out * (1.0 - outer_overlap))))
    hop_in = max(1, int(round(w_in * (1.0 - inner_overlap))))
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
    got = rpsd_features(e, **FEATURE_ARGS)
    want = oracle_rpsd(e, **FEATURE_ARGS)
    assert got.data.shape == want.shape
    assert np.abs(got.data - want).max() < 1e-9


def test_rpsd_geometry_and_metadata():
    e = synth_generate(small_spec(), seed=15)
    f = rpsd_features(e, **FEATURE_ARGS)
    # T=256 at 128 Hz: outer 256/hop 128 -> 1 segment; inner 128/hop 32 -> 5 sub-windows
    assert f.data.shape == (e.n_trials, e.n_channels, 5 * len(DEFAULT_BANDS))
    assert np.array_equal(f.labels, e.labels)
    assert np.array_equal(f.subjects, e.subjects)


def test_rpsd_rows_are_zscored_per_channel():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=2), seed=16)
    f = rpsd_features(e, **FEATURE_ARGS)
    assert np.abs(f.data.mean(-1)).max() < 1e-12
    assert np.abs(f.data.std(-1) - 1.0).max() < 1e-12


def test_rpsd_sinusoid_peaks_in_alpha_band():
    # faint white noise gives every channel spectral mass; the 10 Hz carrier
    # still dominates its channel by orders of magnitude
    e = synth_generate(clean_spec(n_subjects=1, trials_per_subject=4,
                                  white_sigma=0.01), seed=17)
    f = rpsd_features(e, **FEATURE_ARGS)
    n_bands = len(DEFAULT_BANDS)
    alpha = DEFAULT_BANDS.index((8.0, 12.0))
    rows_per_trial = f.n_trials // e.n_trials
    for trial in np.where(e.labels == 0)[0]:
        per_band = f.data[trial * rows_per_trial, 0].reshape(-1, n_bands)
        assert np.all(per_band.argmax(axis=1) == alpha)


def test_rpsd_errors():
    e = synth_generate(small_spec(n_subjects=1, trials_per_subject=2), seed=18)
    with pytest.raises(ConfigError):
        rpsd_features(e, outer_window_s=100.0)
    with pytest.raises(ConfigError):
        rpsd_features(e, outer_window_s=1.0, inner_window_s=2.0)
    with pytest.raises(ConfigError):
        rpsd_features(e, bands=())
    zeros = EpochSet(np.zeros((1, 2, 256)), np.zeros(1), np.zeros(1), 128.0, 1)
    with pytest.raises(NumericError):
        rpsd_features(zeros, **FEATURE_ARGS)


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
    single = e.subset(np.where(e.subjects == 0)[0])
    with pytest.raises(ConfigError):
        make_split(single, "LOSO")
    with pytest.raises(ConfigError):
        make_split(e, "bogus")
