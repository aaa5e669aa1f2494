"""Shared fixtures and the acceptance criteria summary hook."""
import re

import numpy as np
import pytest

CRITERIA = {
    1: "gradient verification suite",
    2: "normalization invariants over repeated forwards",
    3: "exact architectural invariants",
    4: "parameter and FLOP budgets",
    5: "synthetic task learnability",
    6: "euclidean alignment post-conditions",
    7: "metric fixtures",
    8: "byte-identical training artifacts",
    9: "format round-trips and corruption handling",
}

_results: dict = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if not m or report.when != "call":
        return
    num = int(m.group(1))
    passed = report.outcome == "passed"
    _results[num] = _results.get(num, True) and passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in _results:
            verdict = "PASS" if _results[num] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"criterion {num} ({CRITERIA[num]}): {verdict}")


@pytest.fixture
def tiny_cfg():
    from lidsn.config import ModelConfig

    return ModelConfig(
        n_channels=3, n_samples=40, n_classes=2, embed_dim=8, spatial_maps=2,
        n_heads=2, temporal_depth=2, spatial_depth=1, dropout=0.0, ffn_expansion=2,
        kernel_len=5, pool_window=10, spatial_conv_stride=4,
        spatial_pool_window=5, classifier_hidden=8,
    )


@pytest.fixture
def corruptions():
    """Rewrite a file in place into each corruption at the given offsets (the
    file cut there, and that byte set to 0x00, to 0xFF and to its bitwise
    NOT), yielding each case's id while the file holds it."""

    def cases(path, offsets):
        blob = path.read_bytes()
        with open(path, "r+b") as fh:
            for i in offsets:
                edits = [(f"cut@{i}", blob[:i])] + [
                    (f"{value:#04x}@{i}", blob[:i] + bytes([value]) + blob[i + 1:])
                    for value in sorted({0x00, 0xFF, blob[i] ^ 0xFF} - {blob[i]})]
                for case, bad in edits:
                    fh.seek(0)
                    fh.write(bad)
                    fh.truncate()
                    fh.flush()
                    yield case

    return cases


def rand(rng_seed: int, *shape) -> np.ndarray:
    from lidsn.rng import RngStream

    return RngStream(rng_seed, stream=900).normal(0.0, 1.0, shape)
