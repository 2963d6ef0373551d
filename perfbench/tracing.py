"""In-memory span tracing around the calls into each coldrec layer.

Spans are recorded from the benchmark's own files: each traced function is
replaced, in the namespace of the module that looks it up at call time, by a
wrapper that records (name, start, end, parent, run id). Hot helpers whose
cost is a handful of microseconds are counted rather than spanned.
"""

from __future__ import annotations

import importlib
import json
import time

# (module that looks the name up at call time, attribute, span name). An
# entry "_TRAINERS[almm]" wraps one value of a dict the module reads.
SPANNED = (
    ("coldrec.pipeline", "parse_news", "mind.parse_news"),
    ("coldrec.pipeline", "parse_behaviors", "mind.parse_behaviors"),
    ("coldrec.pipeline", "validate_clicks", "mind.validate_clicks"),
    ("coldrec.pipeline", "history_popularity", "mind.history_popularity"),
    ("coldrec.pipeline", "build_tensor", "transitions.build_tensor"),
    ("coldrec.pipeline", "build_triplets", "transitions.build_triplets"),
    ("coldrec.pipeline", "make_cold_split", "splits.make_cold_split"),
    ("coldrec.pipeline", "make_warm_split", "splits.make_warm_split"),
    ("coldrec.pipeline", "fit_tfidf", "features.fit_tfidf"),
    ("coldrec.pipeline", "transform", "features.transform"),
    ("coldrec.pipeline", "load_external_embeddings", "features.load_external_embeddings"),
    ("coldrec.pipeline", "sample_negatives", "models.sample_negatives"),
    ("coldrec.pipeline", "_TRAINERS[almm]", "models.almm_train"),
    ("coldrec.pipeline", "_TRAINERS[forbes]", "models.forbes_train"),
    ("coldrec.pipeline", "_TRAINERS[oord]", "models.oord_train"),
    ("coldrec.pipeline", "save_model", "models.save_model"),
    ("coldrec.pipeline", "load_model", "models.load_model"),
    ("coldrec.models", "_als_update", "models.als_update"),
    ("coldrec.models", "ridge_solve", "numerics.ridge_solve"),
    ("coldrec.models", "_full_loss", "models.loss_eval"),
    ("coldrec.models", "_materialize", "models.materialize"),
    ("coldrec.models", "save_matrix", "numerics.matrix_io"),
    ("coldrec.models", "load_matrix", "numerics.matrix_io"),
    ("coldrec.pipeline", "save_matrix", "numerics.matrix_io"),
    ("coldrec.pipeline", "load_matrix", "numerics.matrix_io"),
    ("coldrec.metrics", "evaluate", "metrics.evaluate"),  # via pipeline.metrics_mod
    ("coldrec.metrics", "predict", "metrics.predict"),
    ("coldrec.metrics", "map_at_k", "metrics.map_recall"),
    ("coldrec.metrics", "recall_at_k", "metrics.map_recall"),
    ("coldrec.metrics", "novelty_at_k", "metrics.novelty"),
    ("coldrec.metrics", "diversity_at_k", "metrics.diversity"),
    ("coldrec.metrics", "emit_curves", "metrics.emit_curves"),
)
COUNTED = (("coldrec.metrics", "cosine_distance", "numerics.cosine_distance"),)


class Tracer:
    """Span and call-count recorder; spans stay in memory until `dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.counts: dict[str, int] = {}
        self.sizes: dict[str, list] = {}  # span name -> per-call size notes
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def span(self, name: str, fn, note=None):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if note is not None:
                self.sizes.setdefault(name, []).append(note(args, kwargs, result))
            return result

        return wrapper

    def counter(self, name: str, fn):
        self.counts[name] = 0

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, notes=None) -> None:
        """Wrap every traced name; raises if a module no longer defines one."""
        notes = notes or {}
        for module_name, attr, span_name in SPANNED:
            self._wrap(module_name, attr, lambda fn, n=span_name: self.span(n, fn, notes.get(n)))
        for module_name, attr, count_name in COUNTED:
            self._wrap(module_name, attr, lambda fn, n=count_name: self.counter(n, fn))

    def _wrap(self, module_name: str, attr: str, make) -> None:
        owner = importlib.import_module(module_name)
        if "[" in attr:
            container, key = attr[:-1].split("[")
            table = getattr(owner, container)
            if key not in table:
                raise LookupError("traced name %s.%s is missing" % (module_name, attr))
            self._restore.append((table.__setitem__, key, table[key]))
            table[key] = make(table[key])
            return
        if not hasattr(owner, attr):
            raise LookupError("traced name %s.%s is missing" % (module_name, attr))
        original = getattr(owner, attr)
        self._restore.append((lambda k, v, o=owner: setattr(o, k, v), attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )


def summarize(spans) -> dict:
    """Per span name: call count, total seconds, self seconds, per-call durations.

    Self time is a span's duration minus its direct children's durations;
    spans are recorded on one thread, so children never overlap each other.
    """
    child_time: dict[int, float] = {}
    for span_id, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for span_id, name, start, end, parent in spans:
        dur = end - start
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        entry["calls"] += 1
        entry["total"] += dur
        entry["self"] += dur - child_time.get(span_id, 0.0)
        entry["durations"].append(dur)
    return out
