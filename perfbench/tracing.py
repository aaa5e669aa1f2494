"""In-memory span tracer that wraps lidsn's public functions from outside.

Nothing under ``src/`` is changed. ``Tracer.install`` replaces module
attributes that the package looks up at call time (for example
``lidsn.tensor.conv1d_depthwise`` or ``lidsn.cli.load_epochs``) with timing
wrappers, and ``Tracer.uninstall`` puts the originals back.

Backward time per block: every wrapped block call notes the tape length
before and after it runs. When ``backward`` is called, each ``TapeEntry``'s
rule is wrapped before the reverse walk starts, and its time is charged to
the block whose tape index range holds that entry.

A span is ``[name, start, end, parent, block]``; ``parent`` is the index of
the enclosing span (-1 at top level) and ``block`` is set only on backward
rule spans.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from lidsn import cli, data, network, params, tensor, training

TENSOR_OPS = ("conv1d_depthwise", "conv1d", "conv1d_pointwise", "batchnorm", "gelu",
              "avgpool1d", "matmul", "layernorm", "softmax")
BLOCKS = ("temporal_tokenize", "spatial_tokenize", "ffn_block", "tsia_apply", "fuse", "classify")
LOSS = "training.weighted_cross_entropy"
STEP = "training.step"
ADAM = "training.Adam.step"
CLONE = "params.ParamSet.clone"
IO_SPANS = ("data.save_epochs", "data.load_epochs")  # also count the bytes of their file
TIMED_FUNCTIONS = (
    (training, "evaluate_model"), (training, "run_fold"),
    (params, "round_through_f32"), (params, "save_snapshot"), (params, "load_snapshot"),
    (data, "save_epochs"), (data, "load_epochs"), (data, "euclidean_align"),
    (data, "rpsd_features"), (data, "make_split"), (data, "synth_generate"),
)


def _span_name(module, attr: str) -> str:
    return f"{module.__name__.split('.')[-1]}.{attr}"


class Tracer:
    """Records spans while installed; derives per-layer metrics from them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ranges: dict[int, list] = {}  # id(tape) -> [(lo, hi, block)]
        self._patched: list[tuple] = []
        self.tape_lengths: list[int] = []
        self.forward_flops: list[float] = []  # computed FLOPs of each network.forward span
        self.io_bytes: dict[str, int] = defaultdict(int)
        self._flops_cache: dict = {}

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        while self._stack:  # also drops spans an exception left open
            if self._stack.pop() == idx:
                break

    def _timed(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _block(self, fn, name: str):
        """Timed wrapper that also notes which tape entries the call appended."""

        def wrapper(*args, **kwargs):
            tape = tensor.active_tape()
            lo = len(tape.entries) if tape is not None else 0
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if tape is not None and len(tape.entries) > lo:
                self._ranges.setdefault(id(tape), []).append((lo, len(tape.entries), name))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _backward(self, fn):
        def rule(entry_backward, name: str, block: str | None):
            def timed_rule(g):
                idx = self.open(name)
                self.spans[idx][4] = block
                try:
                    return entry_backward(g)
                finally:
                    self.close(idx)

            return timed_rule

        def wrapper(loss, tape):
            ranges = sorted(self._ranges.pop(id(tape), []))
            self.tape_lengths.append(len(tape.entries))
            pos = 0
            for i, entry in enumerate(tape.entries):
                while pos < len(ranges) and ranges[pos][1] <= i:
                    pos += 1
                block = ranges[pos][2] if pos < len(ranges) and ranges[pos][0] <= i else None
                entry.backward = rule(entry.backward, f"tensor.{entry.op}.bwd", block)
            idx = self.open("tensor.backward")
            try:
                return fn(loss, tape)
            finally:
                self.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_flops(self, idx, args, kwargs, out):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        if cfg not in self._flops_cache:
            self._flops_cache[cfg] = params.count_flops(cfg)
        self.forward_flops.append(self._flops_cache[cfg] * args[0].shape[0])

    def _count_bytes(self, name: str):
        def after(idx, args, kwargs, out):
            self.io_bytes[name] += os.path.getsize(args[0])

        return after

    # -- install / uninstall ----------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Point every lidsn module attribute bound to ``original`` at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lidsn" or mod_name.startswith("lidsn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for op in TENSOR_OPS:
            fn = getattr(tensor, op)
            self._patch_everywhere(fn, self._timed(fn, f"tensor.{op}"))
        self._patch_everywhere(tensor.backward, self._backward(tensor.backward))
        for name in BLOCKS:
            fn = getattr(network, name)
            self._patch_everywhere(fn, self._block(fn, f"network.{name}"))
        self._patch_everywhere(network.forward,
                               self._timed(network.forward, "network.forward", self._count_flops))
        self._patch_everywhere(training.weighted_cross_entropy,
                               self._block(training.weighted_cross_entropy, LOSS))
        self._patch_everywhere(cli.cmd_train, self._timed(cli.cmd_train, "cli.cmd_train"))
        for module, attr in TIMED_FUNCTIONS:
            fn = getattr(module, attr)
            name = _span_name(module, attr)
            after = self._count_bytes(name) if name in IO_SPANS else None
            self._patch_everywhere(fn, self._timed(fn, name, after))
        self._patch_attr(params.ParamSet, "clone", self._timed(params.ParamSet.clone, CLONE))

        tracer = self
        adam_step = training.Adam.step

        def timed_adam_step(opt, grads):
            idx = tracer.open(ADAM)
            try:
                return adam_step(opt, grads)
            finally:
                tracer.close(idx)
                # a training step runs from the train loop's Tape entry to the
                # end of the optimizer update
                step = tracer._stack[-1] if tracer._stack else -1
                if step >= 0 and tracer.spans[step][0] == STEP:
                    tracer.close(step)

        class StepTape(tensor.Tape):
            def __enter__(self):
                tracer.open(STEP)
                return super().__enter__()

        self._patch_attr(training.Adam, "step", timed_adam_step)
        self._patch_attr(training, "Tape", StepTape)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        return [(s[2] - s[1] if s[2] is not None else 0.0) - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        """Write every span with its self time, plus self time summed by name."""
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        by_name: dict[str, float] = defaultdict(float)
        for span, s in zip(self.spans, selfs):
            by_name[span[0]] += s
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "self_s", "block"],
            "spans": [[n, st - t0, (en if en is not None else st) - t0, p, s, b]
                      for (n, st, en, p, b), s in zip(self.spans, selfs)],
            "self_s_by_name": dict(sorted(by_name.items(), key=lambda kv: -kv[1])),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))

    def metrics(self, repeats: int) -> dict:
        """Per-layer metrics, each a total per traced repeat unless named otherwise."""
        dur = defaultdict(float)
        calls = defaultdict(int)
        block_bwd = defaultdict(float)
        rule_total = 0.0
        in_step = self._step_ancestors()
        covered = 0.0
        steps = []
        for i, (name, start, end, parent, block) in enumerate(self.spans):
            d = (end - start) if end is not None else 0.0
            dur[name] += d
            calls[name] += 1
            if block is not None:
                block_bwd[block] += d
            if name.endswith(".bwd"):
                rule_total += d
            if name == STEP:
                steps.append(d)
            elif in_step[i] and (name.startswith("network.") and name != "network.forward"
                                 or name in (LOSS, ADAM)
                                 or block is not None):
                covered += d
        r = float(repeats)
        out = {}
        for op in TENSOR_OPS:
            out[f"tensor.{op}.fwd_s"] = dur[f"tensor.{op}"] / r
            out[f"tensor.{op}.bwd_s"] = dur[f"tensor.{op}.bwd"] / r
            out[f"tensor.{op}.calls"] = calls[f"tensor.{op}"] / r
        out["tensor.backward.s"] = dur["tensor.backward"] / r
        out["tensor.backward.overhead_s"] = (dur["tensor.backward"] - rule_total) / r
        out["tensor.tape.entries_per_step"] = (float(np.mean(self.tape_lengths))
                                               if self.tape_lengths else 0.0)
        for name in BLOCKS:
            key = f"network.{name}"
            out[f"{key}.fwd_s"] = dur[key] / r
            out[f"{key}.bwd_s"] = block_bwd[key] / r
            out[f"{key}.calls"] = calls[key] / r
        fwd_s = dur["network.forward"]
        out["network.forward.gflops_per_s"] = (sum(self.forward_flops) / fwd_s / 1e9
                                               if fwd_s > 0 else 0.0)
        out["training.step_s.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        out["training.step_s.p90"] = float(np.percentile(steps, 90)) if steps else 0.0
        out["training.step.block_share"] = covered / sum(steps) if steps else 0.0
        out["training.Adam.step_s"] = dur[ADAM] / r
        out["training.weighted_cross_entropy_s"] = (dur[LOSS] + block_bwd[LOSS]) / r
        for key in [_span_name(m, a) for m, a in TIMED_FUNCTIONS] + [CLONE]:
            out[f"{key}_s"] = dur[key] / r
        out[f"{CLONE}.calls"] = calls[CLONE] / r
        for key in IO_SPANS:
            out[f"{key}.mb_per_s"] = self.io_bytes[key] / 1e6 / dur[key] if dur[key] > 0 else 0.0
        selfs = self.self_times()
        out["cli.cmd_train.self_s"] = sum(
            s for span, s in zip(self.spans, selfs) if span[0] == "cli.cmd_train") / r
        return out

    def _step_ancestors(self) -> list[bool]:
        inside = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[3]
            inside[i] = parent >= 0 and (self.spans[parent][0] == STEP or inside[parent])
        return inside

