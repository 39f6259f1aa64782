"""Spans around the public functions of the tcdo layers.

The tracer wraps each public function from outside the package, at every
tcdo module that holds a reference to it (its import sites, and its own
module for calls from inside it), so no tcdo code changes.  A name the
package no longer has is recorded as missing and every metric that depends
on it reads ``null`` with ``"missing": true``; nothing crashes.

Each span is ``[name, start, end, parent index, attrs]``; the run id is kept
once on the tracer.  Spans stay in memory and are written as JSON lines by
``write`` when the run ends.  A span's self time is its length minus the
lengths of its direct children.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from functools import wraps


def _rank_attrs(args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    return [len(mat), len(mat[0]) if mat else 0]


def _apply_mode_attrs(args, kwargs, result):
    return len(result.terms)


def _sections_attrs(args, kwargs, result):
    return len(result)


def _cech_dims_attrs(args, kwargs, result):
    return [args[0] if args else kwargs["n"], args[1] if len(args) > 1 else kwargs["weight_max"]]


def _cech_block_attrs(args, kwargs, result):
    n, weight, mu = args[:3]
    empty = not (result["dim_c0"] or result["dim_cinf"] or result["dim_overlap"])
    return [n, weight, mu, empty]


def _span_add_attrs(args, kwargs, result):
    return bool(result)


# span name -> (layer module, public name, attrs hook or None)
FUNCTIONS = {
    "linalg.rank": ("linalg", "rank", _rank_attrs),
    "linalg.kernel": ("linalg", "kernel_basis", None),
    "modespace.apply_mode": ("modespace", "apply_mode", _apply_mode_attrs),
    "modespace.borcherds": ("modespace", "check_borcherds", None),
    "p1tcdo.glue": ("p1tcdo", "glue", None),
    "p1tcdo.sections": ("p1tcdo", "sections_bidegree", _sections_attrs),
    "cech.dims": ("cech", "cech_dims", _cech_dims_attrs),
    "cech.block": ("cech", "cech_block", _cech_block_attrs),
    "affine.oracle": ("affine", "irreducible_char_oracle", None),
    "affine.singular": ("affine", "singular_bidegrees", None),
    "affine.sugawara": ("affine", "sugawara_apply", None),
    "affine.act": ("affine", "act", None),
    "cli.main": ("cli", "main", None),
}

# span name -> (layer module, public class, {method: attrs hook or None})
CLASSES = {
    "linalg.span": ("linalg", "SpanTracker", {"add": _span_add_attrs, "residual": None, "contains": None}),
}

# modules whose lru caches feed a cache_hit_ratio metric
CACHED_MODULES = ("modespace", "p1tcdo", "affine")


def percentile_ms(durations, p: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000 * ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def ratio(num, den) -> float:
    """num / den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def _wrap_class(self, name, cls, methods):
        body = {m: self._wrap(name, getattr(cls, m), hook) for m, hook in methods.items() if hasattr(cls, m)}
        return type(cls.__name__, (cls,), body)

    def install(self) -> None:
        """Replace every reference to a wrapped public name in the loaded
        tcdo modules; names the package lacks are recorded as missing."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "tcdo" or k.startswith("tcdo.")]
        replacements = []
        for name, (layer, attr, hook) in FUNCTIONS.items():
            original = getattr(sys.modules.get("tcdo." + layer), attr, None)
            if original is None:
                self.missing.add(name)
            else:
                replacements.append((original, self._wrap(name, original, hook)))
        for name, (layer, attr, methods) in CLASSES.items():
            original = getattr(sys.modules.get("tcdo." + layer), attr, None)
            if original is None:
                self.missing.add(name)
            else:
                replacements.append((original, self._wrap_class(name, original, methods)))
        for original, wrapper in replacements:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")

    def _cache_stats(self, layer: str):
        hits = misses = 0
        found = False
        for value in vars(sys.modules.get("tcdo." + layer, object)).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                found = True
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return ratio(hits, hits + misses) if found else None

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value or None, unit)}; None marks a
        metric whose wrapped name is missing from the package."""
        spans = self.spans
        dur = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child[rec[3]] += dur[i]

        def outermost(i):
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][3]
            return True

        by_name: dict[str, list[int]] = {}
        for i, rec in enumerate(spans):
            by_name.setdefault(rec[0], []).append(i)

        def idx(name):
            return by_name.get(name, [])

        def calls(name):
            return len(idx(name))

        def incl_s(name):
            return sum(dur[i] for i in idx(name) if outermost(i))

        def self_s(*names):
            return sum(dur[i] - child[i] for name in names for i in idx(name))

        def layer_self_s(layer):
            return self_s(*(name for name in by_name if name.startswith(layer + ".")))

        adds = [spans[i][4] for i in idx("linalg.span") if spans[i][4] is not None]
        rank_entries = sum(r * c for r, c in (spans[i][4] for i in idx("linalg.rank")))
        sections = [spans[i][4] for i in idx("p1tcdo.sections")]
        blocks = idx("cech.block")

        def outside_window(i):
            # the documented scan window |mu| <= |n| + 2*weight_max + 2, taken
            # from the enclosing cech_dims call
            n, _, mu, _ = spans[i][4]
            p = spans[i][3]
            while p >= 0 and spans[p][0] != "cech.dims":
                p = spans[p][3]
            if p < 0 or spans[p][4] is None:
                return False
            weight_max = spans[p][4][1]
            return abs(mu) > abs(n) + 2 * weight_max + 2

        table = {
            "linalg.span_s": (["linalg.span"], lambda: incl_s("linalg.span"), "s"),
            "linalg.span_adds": (["linalg.span"], lambda: len(adds), "count"),
            "linalg.span_useful_ratio": (["linalg.span"], lambda: ratio(sum(adds), len(adds)), "ratio"),
            "linalg.rank_s": (["linalg.rank"], lambda: incl_s("linalg.rank"), "s"),
            "linalg.rank_calls": (["linalg.rank"], lambda: calls("linalg.rank"), "count"),
            "linalg.rank_entries": (["linalg.rank"], lambda: rank_entries, "count"),
            "linalg.kernel_s": (["linalg.kernel"], lambda: incl_s("linalg.kernel"), "s"),
            "linalg.kernel_calls": (["linalg.kernel"], lambda: calls("linalg.kernel"), "count"),
            "modespace.apply_mode_s": (["modespace.apply_mode"], lambda: incl_s("modespace.apply_mode"), "s"),
            "modespace.apply_mode_calls": (["modespace.apply_mode"], lambda: calls("modespace.apply_mode"), "count"),
            "modespace.terms_out": (["modespace.apply_mode"],
                                    lambda: sum(spans[i][4] for i in idx("modespace.apply_mode")), "count"),
            "modespace.borcherds_p50_ms": (["modespace.borcherds"],
                                           lambda: percentile_ms([dur[i] for i in idx("modespace.borcherds")], 50), "ms"),
            "modespace.borcherds_p95_ms": (["modespace.borcherds"],
                                           lambda: percentile_ms([dur[i] for i in idx("modespace.borcherds")], 95), "ms"),
            "p1tcdo.glue_calls": (["p1tcdo.glue"], lambda: calls("p1tcdo.glue"), "count"),
            "p1tcdo.glue_self_s": (["p1tcdo.glue"], lambda: self_s("p1tcdo.glue"), "s"),
            "p1tcdo.sections_calls": (["p1tcdo.sections"], lambda: len(sections), "count"),
            "p1tcdo.sections_s": (["p1tcdo.sections"], lambda: incl_s("p1tcdo.sections"), "s"),
            "p1tcdo.sections_empty_ratio": (["p1tcdo.sections"],
                                            lambda: ratio(sum(1 for s in sections if s == 0), len(sections)), "ratio"),
            "cech.blocks": (["cech.block"], lambda: len(blocks), "count"),
            "cech.empty_block_ratio": (["cech.block"],
                                       lambda: ratio(sum(1 for i in blocks if spans[i][4][3]), len(blocks)), "ratio"),
            "cech.outside_window_ratio": (["cech.block", "cech.dims"],
                                          lambda: ratio(sum(1 for i in blocks if outside_window(i)), len(blocks)), "ratio"),
            "cech.block_p50_ms": (["cech.block"], lambda: percentile_ms([dur[i] for i in blocks], 50), "ms"),
            "cech.block_p99_ms": (["cech.block"], lambda: percentile_ms([dur[i] for i in blocks], 99), "ms"),
            "cech.self_s": (["cech.dims"], lambda: layer_self_s("cech"), "s"),
            "affine.sugawara_s": (["affine.sugawara"], lambda: incl_s("affine.sugawara"), "s"),
            "affine.sugawara_calls": (["affine.sugawara"], lambda: calls("affine.sugawara"), "count"),
            "affine.act_s": (["affine.act"], lambda: incl_s("affine.act"), "s"),
            "affine.act_calls": (["affine.act"], lambda: calls("affine.act"), "count"),
            "affine.self_s": (["affine.oracle"], lambda: layer_self_s("affine"), "s"),
            "cli.self_s": (["cli.main"], lambda: layer_self_s("cli"), "s"),
        }
        out = {}
        for metric, (needs, compute, unit) in table.items():
            out[metric] = (None if self.missing.intersection(needs) else compute(), unit)
        for layer in CACHED_MODULES:
            out[f"{layer}.cache_hit_ratio"] = (self._cache_stats(layer), "ratio")
        return out
