"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the layer functions named in `TARGETS` with
timing wrappers, in every module of the package that holds a reference to
them (so names imported with `from x import f` are wrapped too), and
`uninstall()` puts the originals back. Each call becomes a span (name, start,
end, parent, step or utterance id) kept in memory and written out at the end.

A span's self time is its duration minus the durations of its child spans.
The benchmark itself adds one span per timed operation (`training.step`
around an optimizer step, `bench.utterance` around a decode); the layer self
times inside those spans plus the remainder (the self time of the benchmark's
own spans) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings
from collections import Counter, defaultdict

import numpy as np

from conformerst import (cli, decoding, evaluation, frontend, losses, model, numcore,
                         textproc, training)

PACKAGE_MODULES = (numcore, frontend, textproc, model, losses, training, decoding,
                   evaluation, cli)

# numcore ops reported one by one; the other public ops are traced too so
# that their time lands in the numcore layer.
REPORTED_OPS = ("matmul", "add", "mul", "scale", "layer_norm", "softmax", "log_softmax",
                "conv1d", "depthwise_conv1d", "silu", "glu", "dropout", "mask_fill",
                "embedding", "reshape", "transpose", "gather_index")
OTHER_OPS = ("sub", "exp", "log", "concat", "sum_", "mean_")


def _mha_name(args, kwargs):
    prefix = args[1]
    if prefix.startswith("enc."):
        return "model.enc.mha"
    return "model.dec.self_mha" if prefix.endswith(".self") else "model.dec.cross_mha"


def _ffn_name(args, kwargs):
    return "model.enc.ffn" if args[1].startswith("enc.") else "model.dec.ffn"


# (owner, attribute, span name or naming function, kind, private)
TARGETS = (
    [(numcore, op, f"numcore.{op.rstrip('_')}", "op", False) for op in REPORTED_OPS + OTHER_OPS]
    + [
        (numcore, "backward", "numcore.backward", "plain", False),
        (frontend, "extract_features", "frontend.extract_features", "plain", False),
        (frontend, "read_wav", "frontend.read_wav", "plain", False),
        (frontend.FeatureCache, "__call__", "frontend.feature_cache", "plain", False),
        (model.Model, "encode", "model.encode", "plain", False),
        (model.Model, "subsample", "model.subsample", "plain", False),
        (model.Model, "decode_step", "model.decode_step", "decode_step", False),
        (model.Model, "ctc_head", "model.ctc_head", "plain", False),
        (model.Model, "_mha", _mha_name, "plain", True),
        (model.Model, "_ffn", _ffn_name, "plain", True),
        (model.Model, "_conv_module", "model.enc.conv", "plain", True),
        (model, "save_checkpoint", "model.save_checkpoint", "plain", False),
        (losses, "ctc_loss", "losses.ctc_loss", "ctc_loss", False),
        (losses, "ctc_forward", "losses.ctc_forward", "plain", False),
        (losses, "label_smoothed_ce", "losses.label_smoothed_ce", "plain", False),
        (losses, "combined_loss", "losses.combined_loss", "plain", False),
        (training, "train_stage", "training.train_stage", "plain", False),
        (training.AdamW, "step", "training.optimizer", "plain", False),
        (training, "clip_grad_norm", "training.clip_grad_norm", "plain", False),
        (decoding, "beam_search", "decoding.beam_search", "search", False),
        (decoding, "banned_ngram_tokens", "decoding.ngram", "plain", False),
        (decoding, "joint_rescore", "decoding.joint_rescore", "plain", False),
        (decoding, "ctc_prefix_score", "decoding.ctc_prefix_score", "plain", False),
    ]
)

LAYERS = ("numcore", "frontend", "model", "losses", "training", "decoding")
UNIT_SPANS = ("training.step", "bench.utterance")

SPAN_DTYPE = [("idx", "i8"), ("nid", "i4"), ("t0", "f8"), ("t1", "f8"),
              ("parent", "i8"), ("unit", "i8")]
FLUSH_EVERY = 50_000


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


class Tracer:
    """Spans and counts of one traced run; `unit` is the current step or
    utterance id, and units from `timed_from` to `timed_to` are the timed ones."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._records: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._stack: list[int] = []
        self._open: dict[int, tuple] = {}  # spans opened by begin(): idx -> (nid, t0, parent, unit)
        self._next = 0
        self._patches: list[tuple] = []
        self._step_idx = None
        self._unit_idx = None
        self.search_depth = 0
        self.unit = 0
        self.timed_from = 1
        self.timed_to = float("inf")
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.skipped: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _record(self, rec):
        self._records.append(rec)
        if len(self._records) >= FLUSH_EVERY:
            self._chunks.append(np.array(self._records, dtype=SPAN_DTYPE))
            self._records = []

    def begin(self, name: str) -> int:
        idx = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._open[idx] = (self._nid(name), time.perf_counter(), parent, self.unit)
        return idx

    def _close_above(self, idx: int, t1: float):
        """Close spans opened by begin() that are still open above `idx`."""
        while self._stack and self._stack[-1] != idx:
            top = self._stack.pop()
            nid, t0, parent, unit = self._open.pop(top)
            self._record((top, nid, t0, t1, parent, unit))

    def end(self, idx: int):
        """Close a span opened by begin(), unless a wrapper already closed it."""
        if idx in self._open:
            t1 = time.perf_counter()
            self._close_above(idx, t1)
            self._stack.pop()
            nid, t0, parent, unit = self._open.pop(idx)
            self._record((idx, nid, t0, t1, parent, unit))

    def mark_step(self, step):
        """Called at the start of optimizer step `step` (None after the last)."""
        if self._step_idx is not None:
            self.end(self._step_idx)
            self._step_idx = None
        self.unit = step or 0
        if step is not None:
            self._step_idx = self.begin("training.step")

    def begin_unit(self, unit: int):
        self.unit = unit
        self._unit_idx = self.begin("bench.utterance")

    def end_unit(self):
        self.end(self._unit_idx)
        self.unit = 0

    def timed(self, units):
        """Whether each unit id (a scalar or an array) is a timed one."""
        return (units >= self.timed_from) & (units <= self.timed_to)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None, leave=None):
        tracer = self
        perf = time.perf_counter
        fixed = None if callable(name) else self._nid(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._nid(name(args, kwargs))
            if before is not None:
                before(args, kwargs)
            idx = tracer._next
            tracer._next = idx + 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            unit = tracer.unit
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if stack[-1] != idx:
                    tracer._close_above(idx, t1)
                stack.pop()
                tracer._record((idx, nid, t0, t1, parent, unit))
                if leave is not None:
                    leave()
            if after is not None:
                after(out)
            return out

        return wrapper

    def _node_hook(self, bwd_name):
        """Count each tape node an op returns and time its backward closure."""
        tensor_type = numcore.Tensor

        def after(out):
            if not isinstance(out, tensor_type):
                return
            bw = getattr(out, "_backward", None)
            if bw is None or getattr(bw, "_perfbench", False):
                return
            traced = self._wrap(bw, bwd_name)
            traced._perfbench = True
            out._backward = traced
            self.counts["numcore.tape_nodes"][self.unit] += 1

        return after

    def _decode_step_before(self, args, kwargs):
        prefix = np.asarray(args[2] if len(args) > 2 else kwargs["prefix"])
        b, n = (1, prefix.shape[0]) if prefix.ndim == 1 else prefix.shape[:2]
        self.counts["model.decode_step.positions"][self.unit] += b * n
        # beam search reads the last position of each row; teacher forcing all
        self.counts["model.decode_step.useful"][self.unit] += b if self.search_depth else b * n

    def _ctc_loss_hook(self):
        node = self._node_hook("losses.ctc_loss.bwd")

        def after(out):
            node(out)
            if np.isinf(out.data).any():
                self.counts["losses.ctc_loss.infeasible"][self.unit] += 1

        return after

    def _search_enter(self, args, kwargs):
        self.search_depth += 1

    def _search_leave(self):
        self.search_depth -= 1

    def install(self):
        if not hasattr(numcore.Tensor, "_backward"):
            warnings.warn("numcore.Tensor has no _backward; backward time per op is skipped")
            self.skipped.append("numcore.Tensor._backward")
        for owner, attr, name, kind, private in TARGETS:
            orig = owner.__dict__.get(attr)
            if orig is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if private:
                    warnings.warn(f"{label} not found; its per-layer metric is skipped")
                else:
                    print(f"perfbench: warning: public name {label} not found", file=sys.stderr)
                self.skipped.append(label)
                continue
            before = after = leave = None
            if kind == "op" and "numcore.Tensor._backward" not in self.skipped:
                after = self._node_hook(f"{name}.bwd")
            elif kind == "ctc_loss":
                after = self._ctc_loss_hook()
            elif kind == "decode_step":
                before = self._decode_step_before
            elif kind == "search":
                before, leave = self._search_enter, self._search_leave
            wrapper = functools.update_wrapper(self._wrap(orig, name, before, after, leave), orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in PACKAGE_MODULES:  # every module that imported the name
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results -------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All closed spans, ordered by index (a parent precedes its children)."""
        parts = self._chunks + [np.array(self._records, dtype=SPAN_DTYPE)]
        spans = np.concatenate(parts)
        return spans[np.argsort(spans["idx"], kind="stable")]

    def save(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        s = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **{k: s[k] for k, _ in SPAN_DTYPE})


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Per-layer metric names with their units. Times and counts are means per
# timed operation (optimizer step or utterance) unless the name says ratio.
PER_LAYER = (
    [(f"numcore.{op}.{m}", u) for op in REPORTED_OPS
     for m, u in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"))]
    + [("numcore.backward.ms", "ms"), ("numcore.tape_nodes_per_step", "count")]
    + [(f"model.{b}.ms", "ms") for b in ("encode", "subsample", "enc.ffn", "enc.mha", "enc.conv",
                                         "dec.self_mha", "dec.cross_mha", "ctc_head",
                                         "save_checkpoint")]
    + [("model.decode_step.calls", "count"), ("model.decode_step.positions", "count"),
       ("model.decode_step.useful_ratio", "ratio")]
    + [("losses.ctc_loss.calls", "count"), ("losses.ctc_loss.fwd_ms", "ms"),
       ("losses.ctc_loss.bwd_ms", "ms"), ("losses.ctc_loss.infeasible", "count"),
       ("losses.label_smoothed_ce.ms", "ms")]
    + [(f"training.phase.{p}_ms", "ms") for p in ("data", "forward", "loss", "backward",
                                                  "optimizer")]
    + [("training.skipped_steps", "count")]
    + [("frontend.extract_features.calls", "count"), ("frontend.extract_features.ms", "ms"),
       ("frontend.feature_cache.hit_ratio", "ratio")]
    + [("decoding.search_ms", "ms"), ("decoding.steps_per_utt", "count"),
       ("decoding.ngram_ms", "ms"), ("decoding.rescore_ms", "ms"),
       ("decoding.length_cap_hits", "count"), ("decoding.rescore_changed_best_ratio", "ratio")]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [("trace.remainder_share", "ratio"), ("trace.overhead_ratio", "ratio")]
)
PER_LAYER_UNITS = dict(PER_LAYER)

PHASES = (  # direct children of an optimizer step, by name prefix; first match wins
    ("backward", ("numcore.backward",)),
    ("data", ("frontend.",)),
    ("forward", ("model.encode", "model.decode_step", "model.ctc_head", "model.subsample",
                 "numcore.")),
    ("loss", ("losses.",)),
    ("optimizer", ("training.optimizer", "training.clip_grad_norm")),
)


def counts_repeat(tracer: Tracer, key: str, group_of: dict) -> bool:
    """Whether count `key` is the same for every operation of a group (the
    same batch for an optimizer step, the same utterance for a decode), and
    some group has more than one operation, so that something was compared."""
    seen, sizes = {}, Counter(group_of.values())
    for unit, group in group_of.items():
        value = tracer.counts[key].get(unit, 0)
        if seen.setdefault(group, value) != value:
            return False
    return max(sizes.values(), default=0) > 1


def layer_metrics(tracer: Tracer, traced, untraced, skipped_steps: int = 0) -> dict:
    """Per-layer metrics over the timed operations of a traced run.

    `traced` and `untraced` are the workload results of the traced run and of
    an untraced run of the same size; their difference is the overhead.
    """
    s = tracer.spans()
    if len(s) and not np.array_equal(s["idx"], np.arange(len(s))):
        raise RuntimeError("trace: span indices are not dense; a span was left open")
    names = np.array(tracer.names)
    name = names[s["nid"]]
    dur = s["t1"] - s["t0"]
    self_t = self_times(dur, s["parent"])
    timed = tracer.timed(s["unit"])
    units = timed & np.isin(name, UNIT_SPANS)
    n = int(units.sum())
    wall = float(dur[units].sum())
    parent_name = np.where(s["parent"] >= 0, name[np.maximum(s["parent"], 0)], "")

    def per_op(x) -> float:
        return float(x) / n if n else 0.0

    def total(span, what=dur, where=None):
        m = timed & (name == span)
        if where is not None:
            m &= where
        return float(what[m].sum()) * 1000.0

    def calls(span, where=None):
        m = timed & (name == span)
        if where is not None:
            m &= where
        return int(m.sum())

    def count(key):
        return sum(v for u, v in tracer.counts[key].items() if tracer.timed(u))

    out = {}
    for op in REPORTED_OPS:
        out[f"numcore.{op}.calls"] = per_op(calls(f"numcore.{op}"))
        out[f"numcore.{op}.fwd_ms"] = per_op(total(f"numcore.{op}"))
        out[f"numcore.{op}.bwd_ms"] = per_op(total(f"numcore.{op}.bwd"))
    out["numcore.backward.ms"] = per_op(total("numcore.backward", self_t))
    out["numcore.tape_nodes_per_step"] = per_op(count("numcore.tape_nodes"))

    for block in ("encode", "subsample", "enc.ffn", "enc.mha", "enc.conv", "dec.self_mha",
                  "dec.cross_mha", "ctc_head", "save_checkpoint"):
        out[f"model.{block}.ms"] = per_op(total(f"model.{block}"))
    positions = count("model.decode_step.positions")
    out["model.decode_step.calls"] = per_op(calls("model.decode_step"))
    out["model.decode_step.positions"] = per_op(positions)
    out["model.decode_step.useful_ratio"] = (count("model.decode_step.useful") / positions
                                             if positions else 0.0)

    out["losses.ctc_loss.calls"] = per_op(calls("losses.ctc_loss"))
    out["losses.ctc_loss.fwd_ms"] = per_op(total("losses.ctc_loss"))
    out["losses.ctc_loss.bwd_ms"] = per_op(total("losses.ctc_loss.bwd"))
    out["losses.ctc_loss.infeasible"] = per_op(count("losses.ctc_loss.infeasible"))
    out["losses.label_smoothed_ce.ms"] = per_op(total("losses.label_smoothed_ce"))

    in_step = timed & (parent_name == "training.step")
    phase = np.full(len(s), "", dtype=object)
    for label, prefixes in reversed(PHASES):
        for p in prefixes:
            phase[in_step & np.char.startswith(name.astype(str), p)] = label
    for label, _ in PHASES:
        out[f"training.phase.{label}_ms"] = per_op(dur[phase == label].sum() * 1000.0)
    out["training.skipped_steps"] = float(skipped_steps)

    feature_calls = timed & (name == "frontend.feature_cache")
    misses = np.unique(s["parent"][timed & (name == "frontend.extract_features")
                                   & (parent_name == "frontend.feature_cache")])
    out["frontend.extract_features.calls"] = per_op(calls("frontend.extract_features"))
    out["frontend.extract_features.ms"] = per_op(total("frontend.extract_features"))
    out["frontend.feature_cache.hit_ratio"] = (1.0 - len(misses) / feature_calls.sum()
                                               if feature_calls.any() else 0.0)

    in_search = parent_name == "decoding.beam_search"
    out["decoding.search_ms"] = per_op(total("decoding.beam_search", self_t))
    out["decoding.steps_per_utt"] = per_op(calls("model.decode_step", in_search))
    out["decoding.ngram_ms"] = per_op(total("decoding.ngram"))
    out["decoding.rescore_ms"] = per_op(
        total("decoding.joint_rescore")
        + total("decoding.ctc_prefix_score", where=parent_name != "decoding.joint_rescore"))
    out["decoding.length_cap_hits"] = per_op(traced.detail.get("length_cap_hits", 0))
    out["decoding.rescore_changed_best_ratio"] = float(traced.detail.get("rescore_changed", 0.0))

    layer = np.array([x.split(".", 1)[0] for x in names])[s["nid"]]
    attributed = 0.0
    for lay in LAYERS:
        share = float(self_t[timed & (layer == lay)].sum()) / wall if wall else 0.0
        out[f"{lay}.self_share"] = share
        attributed += share
    out["trace.remainder_share"] = 1.0 - attributed
    untraced_per_op = untraced.wall_s / untraced.ops if untraced.ops else 0.0
    out["trace.overhead_ratio"] = (wall / n) / untraced_per_op - 1.0 if untraced_per_op else 0.0
    return out
