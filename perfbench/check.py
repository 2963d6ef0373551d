"""Output check for every benchmark run.

Three checks, each per (model, split) pair; a pair that misses one counts as
failed, and the benchmark carries on:

1. Oracle: metrics.csv must agree, within ORACLE_TOL, with MAP / Recall /
   Novelty / Diversity recomputed from the run's persisted splits, features,
   popularity and models by the vectorised scorer below, which shares no
   code with coldrec.metrics.
2. Reference: for seeds listed in reference/<workload>.json, metrics.csv must
   agree with the recorded values within REFERENCE_RTOL. Optimisations may
   move the last bits of training and scoring, so bytes are not compared.
3. Rerun identity: every run of one benchmark invocation (same code, same
   inputs, traced or not) must write byte-identical metrics.csv.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_TOL = 1e-9
REFERENCE_RTOL = 1e-6


def read_curves(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "model,setting,k,metric,value":
            raise ValueError("%s: unexpected header" % path)
        for line in fh:
            model, setting, k, metric, value = line.rstrip("\n").split(",")
            values["%s,%s,%s,%s" % (model, setting, k, metric)] = float(value)
    return values


def _universe(split) -> list:
    seen: dict = {}
    for side in (split.train, split.test):
        for t in side:
            seen.setdefault(t.last_article, None)
            seen.setdefault(t.next_article, None)
    return list(seen)


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix, dtype=np.float64)


def oracle(out_dir: str, feature_kind: str, models, ks):
    """Recompute every metrics.csv value from the run's persisted artifacts.

    Returns the values and, per split, the number of candidates per query."""
    from coldrec.models import load_model
    from coldrec.pipeline import (FEATURES_DIR, INGEST_DIR, MODELS_DIR, SPLITS_DIR,
                                  load_features, load_popularity)
    from coldrec.splits import load_split

    features = load_features(os.path.join(out_dir, FEATURES_DIR, feature_kind))
    tfidf = load_features(os.path.join(out_dir, FEATURES_DIR, "tfidf"))
    popularity = load_popularity(os.path.join(out_dir, INGEST_DIR, "popularity.tsv"))
    total_clicks = max(1, sum(popularity.values()))
    k_max = max(ks)
    values = {}
    candidates = {}
    for split_kind in ("warm", "cold"):
        split = load_split(os.path.join(out_dir, SPLITS_DIR, split_kind))
        universe = _universe(split)
        pos = {a: p for p, a in enumerate(universe)}
        content = features.rows(universe)
        rows = _dense(tfidf.rows(universe))
        norms = np.linalg.norm(rows, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        distance = 1.0 - (rows @ rows.T) / np.outer(safe, safe)
        zero = norms == 0
        distance[zero, :] = 1.0
        distance[:, zero] = 1.0
        info = np.array([-math.log2(max(popularity.get(a, 0), 1) / total_clicks) for a in universe])
        queries = list(split.test)
        last = np.array([pos[t.last_article] for t in queries])
        nxt = np.array([pos[t.next_article] for t in queries])
        candidates[split_kind] = len(universe) - 1
        for kind in models:
            model = load_model(os.path.join(out_dir, MODELS_DIR, "%s-%s" % (kind, split_kind)))
            x_all = np.asarray(content @ model.last_mapping)
            y_all = np.asarray(content @ model.next_mapping)
            if kind != "oord":
                for p, a in enumerate(universe):
                    idx = model.articles.get(a)
                    if idx is not None:
                        x_all[p] = model.last_factors[idx]
                        y_all[p] = model.next_factors[idx]
            # predict's tie-break: trained articles by index, then cold ones by id
            keys = [(0, model.articles[a], "") if a in model.articles else (1, 0, a) for a in universe]
            tie = np.empty(len(universe), dtype=np.int64)
            tie[sorted(range(len(universe)), key=keys.__getitem__)] = np.arange(len(universe))
            users = np.zeros((len(queries), model.hyper.latent_dim))
            for q, t in enumerate(queries):
                u = model.users.get(t.user)
                if u is not None:
                    users[q] = model.user_factors[u]
            xq = x_all[last]
            scores = y_all @ users.T + y_all @ xq.T + np.einsum("qd,qd->q", users, xq)
            ranks, heads = [], []
            for q in range(len(queries)):
                cand = np.delete(np.arange(len(universe)), last[q])
                order = cand[np.lexsort((tie[cand], -scores[cand, q]))]
                hit = np.flatnonzero(order == nxt[q])
                ranks.append(int(hit[0]) + 1 if hit.size else None)
                heads.append(order[:k_max])
            for k in ks:
                hits = [1.0 / r if r is not None and r <= k else 0.0 for r in ranks]
                div = []
                for h in heads:
                    h = h[:k]
                    if len(h) < 2:
                        div.append(0.0)
                        continue
                    block = distance[np.ix_(h, h)]
                    div.append(block[np.triu_indices(len(h), 1)].mean())
                prefix = "%s,%s,%d," % (kind, split_kind, k)
                values[prefix + "map"] = sum(hits) / len(ranks)
                values[prefix + "recall"] = sum(h > 0 for h in hits) / len(ranks)
                values[prefix + "novelty"] = float(np.mean([info[h[:k]].mean() for h in heads]))
                values[prefix + "diversity"] = float(np.mean(div))
    return values, candidates


def _pairs_off(found: dict, expected: dict, close) -> set:
    bad = set()
    for key in set(found) | set(expected):
        if key not in found or key not in expected or not close(found[key], expected[key]):
            bad.add(tuple(key.split(",")[:2]))
    return bad


class Verdict:
    """Accumulates the per-pair outcome of every run of one invocation.

    The first run is checked against the oracle and the recorded reference;
    every later run reads the same inputs and must reproduce its metrics.csv
    byte for byte.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_error = None
        self.first = None  # sha, values and bad pairs of the first good run
        self.notes: list[str] = []
        path = os.path.join(HERE, "reference", "%s.json" % workload.name)
        with open(path, "r", encoding="utf-8") as fh:
            self.reference = json.load(fh).get(str(seed))

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def add_run(self, result: dict) -> None:
        pairs = self.workload.pairs
        self.attempted += pairs
        if "error" in result:
            self.failed += pairs
            self.first_error = self.first_error or result["error"]
            return
        if self.first is None:
            self.first = self._first_run(result)
        elif result["metrics_sha256"] != self.first["sha"]:
            self.failed += pairs
            self.notes.append("FAIL rerun identity: metrics.csv %s, first run %s"
                              % (result["metrics_sha256"], self.first["sha"]))
            return
        self.failed += len(self.first["bad"])

    def _first_run(self, result: dict) -> dict:
        w = self.workload
        out = result["out"]
        values = read_curves(os.path.join(out, "metrics.csv"))
        bad: set = set()
        try:
            expected, candidates = oracle(out, w.features, w.models, w.ks)
        except Exception as exc:  # noqa: BLE001 - unreadable artifacts fail every pair
            self.notes.append("FAIL oracle check: %r" % (exc,))
            bad |= {(m, s) for m in w.models for s in ("warm", "cold")}
            expected, candidates = values, {}
        worst = max(abs(values.get(k, math.inf) - v) for k, v in expected.items())
        off = _pairs_off(values, expected, lambda a, b: abs(a - b) <= ORACLE_TOL)
        checks = ["oracle %s (max |deviation| %.3g, tolerance %g)"
                  % ("FAIL " + str(sorted(off)) if off else "ok", worst, ORACLE_TOL)]
        bad |= off
        if self.reference is None:
            checks.append("no recorded reference for seed %d" % self.seed)
        else:
            off = _pairs_off(values, self.reference,
                             lambda a, b: math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12))
            checks.append("reference %s (relative tolerance %g)"
                          % ("FAIL " + str(sorted(off)) if off else "ok", REFERENCE_RTOL))
            bad |= off
        c = result["counters"]
        self.notes.append(
            "inputs: clicks %d, triplets %d, test queries %d, candidates %d per model, m %d; %s; "
            "metrics.csv sha256 %s"
            % (c["clicks_kept"], c["triplets"],
               c["split_warm_test_entries"] + c["split_cold_test_entries"],
               sum(c["split_%s_test_entries" % s] * n for s, n in candidates.items()),
               c.get("external_dim", c["tfidf_vocabulary"]), "; ".join(checks),
               result["metrics_sha256"]))
        return {"sha": result["metrics_sha256"], "values": values, "bad": bad}

    def quality(self) -> dict:
        v = self.first["values"]
        maps = [v["%s,%s,10,map" % (m, s)] for m in self.workload.models for s in ("warm", "cold")]
        return {"almm_cold_recall_at_10": v["almm,cold,10,recall"],
                "mean_map_at_10": sum(maps) / len(maps)}

    def report_lines(self) -> list:
        share = self.failed / self.attempted if self.attempted else 1.0
        quality = ["%-24s %12.6g share (guarded by the output check, not gated)" % item
                   for item in self.quality().items()]
        return quality + self.notes + [
            "failed_share %.6g (%d of %d (model, split) pairs)" % (share, self.failed, self.attempted),
        ]
