"""Run configuration: a TOML file, read with the standard library's tomllib, and seeding.

Each `[section] key` fills one field: of `RunConfig`, of its `Hyperparams`
(`[model]`) or of its `VectorizerConfig` (`[features]`). A key the file
leaves out takes that dataclass's default. An unknown section or key, and a
value whose TOML type does not fit its field, raise `ValueError` naming the
file and `section.key`; an int is accepted where a float is expected. Paths
are resolved relative to the config file's directory. Every stage derives its
random seed from the run seed as SHA-256("<seed>:<stage>"), first 8 bytes
little-endian, mod 2^32, so no stage reads ambient entropy and the structure
is reproducible elsewhere.
"""

from __future__ import annotations

import hashlib
import os
import tomllib
from dataclasses import dataclass, field, fields

from .artifacts import TYPE_NAMES, fits
from .features import VectorizerConfig
from .models import MODEL_KINDS, Hyperparams
from .splits import SPLIT_KINDS
from .transitions import DEFAULT_WINDOW_SECONDS

DEFAULT_SEED = 42
FEATURE_KINDS = ("tfidf", "external")


def derive_seed(base_seed: int, stage: str) -> int:
    """Per-stage substream seed: SHA-256 of '<seed>:<stage>', first 8 bytes LE, mod 2^32."""
    digest = hashlib.sha256(("%d:%s" % (base_seed, stage)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**32)


@dataclass
class RunConfig:
    news_path: str
    behaviors_path: str
    embeddings_path: str | None = None
    window_seconds: int = DEFAULT_WINDOW_SECONDS
    split_kinds: list[str] = field(default_factory=lambda: list(SPLIT_KINDS))
    cold_fraction: float = 0.1
    warm_fraction: float = 0.2
    feature_kind: str = "tfidf"
    vectorizer: VectorizerConfig = field(default_factory=VectorizerConfig)
    model_kinds: list[str] = field(default_factory=lambda: list(MODEL_KINDS))
    hyper: Hyperparams = field(default_factory=Hyperparams)
    ks: list[int] = field(default_factory=lambda: [5, 10, 20])
    out_dir: str = "out"
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        required = [self.news_path, self.behaviors_path]
        if self.feature_kind == "external":
            if self.embeddings_path is None:
                raise ValueError('data.embeddings is required when features.kind is "external"')
            required.append(self.embeddings_path)
        for path in required:
            if not os.path.exists(path):
                raise FileNotFoundError("configured input does not exist: %s" % path)
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError("unknown feature kind %r" % self.feature_kind)
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ValueError("unknown model kind %r" % kind)
        for kind in self.split_kinds:
            if kind not in SPLIT_KINDS:
                raise ValueError("unknown split kind %r" % kind)
        for key, fraction in (
            ("split.cold_fraction", self.cold_fraction), ("split.warm_fraction", self.warm_fraction)
        ):
            if not 0.0 < fraction < 1.0:
                raise ValueError("%s must be in (0, 1), got %r" % (key, fraction))
        if self.window_seconds < 1:
            raise ValueError("transitions.window_seconds must be >= 1, got %r" % self.window_seconds)
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("ks must be positive integers")
        if self.vectorizer.max_vocab < 1:
            raise ValueError("max_vocab must be >= 1")
        self.hyper.validate()


def _record_keys(section: str, record, renames: dict, skip=()) -> dict:
    """`[section]` keys filling `record`, each named after its field unless renamed."""
    return {
        (section, renames.get(f.name, f.name)): (record, f.name, type(f.default))
        for f in fields(record)
        if f.name not in skip
    }


# (section, key) -> (owner, field, TOML type); "" is the top level. The kind
# keys hold a token that load_config expands into the field's list.
_KEYS = {
    ("", "seed"): (RunConfig, "seed", int),
    ("data", "news"): (RunConfig, "news_path", str),
    ("data", "behaviors"): (RunConfig, "behaviors_path", str),
    ("data", "embeddings"): (RunConfig, "embeddings_path", str),
    ("transitions", "window_seconds"): (RunConfig, "window_seconds", int),
    ("split", "kind"): (RunConfig, "split_kinds", str),
    ("split", "cold_fraction"): (RunConfig, "cold_fraction", float),
    ("split", "warm_fraction"): (RunConfig, "warm_fraction", float),
    ("features", "kind"): (RunConfig, "feature_kind", str),
    ("model", "kind"): (RunConfig, "model_kinds", str),
    ("eval", "ks"): (RunConfig, "ks", list),
    ("output", "dir"): (RunConfig, "out_dir", str),
    **_record_keys("features", VectorizerConfig, {"remove_stopwords": "stopwords"}),
    # the seed is a top-level key: [model] seed is unknown
    **_record_keys("model", Hyperparams, {"negatives_per_positive": "negatives"}, skip=("seed",)),
}
_SECTIONS = {section for section, _ in _KEYS if section}


def _expand_kinds(value: str, all_token: str, known) -> list[str]:
    if value == all_token:
        return list(known)
    if value not in known:
        raise ValueError("unknown kind %r (expected one of %s or %r)" % (value, known, all_token))
    return [value]


def load_config(
    path,
    *,
    seed: int | None = None,
    model: str | None = None,
    features: str | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Read a config file and apply CLI overrides; validates referenced paths."""
    with open(path, "rb") as fh:
        try:
            doc = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    items = []
    for head, entry in doc.items():
        if not isinstance(entry, dict):
            items.append(("", head, entry))
        elif head in _SECTIONS:
            items += [(head, key, value) for key, value in entry.items()]
        else:
            raise ValueError("%s: unknown section [%s]" % (path, head))
    values = {RunConfig: {}, Hyperparams: {}, VectorizerConfig: {}}
    for section, key, value in items:
        dotted = "%s.%s" % (section, key) if section else key
        if (section, key) not in _KEYS:
            raise ValueError("%s: unknown key %s" % (path, dotted))
        owner, name, kind = _KEYS[section, key]
        if not fits(value, kind):
            raise ValueError("%s: %s must be %s, got %r" % (path, dotted, TYPE_NAMES[kind], value))
        values[owner][name] = float(value) if kind is float else value
    run = values[RunConfig]
    for key, name in (("news", "news_path"), ("behaviors", "behaviors_path")):
        if name not in run:
            raise ValueError("%s: missing required key data.%s" % (path, key))
    for name, override in (
        ("seed", seed), ("model_kinds", model), ("feature_kind", features), ("out_dir", out_dir)
    ):
        if override is not None:
            run[name] = override
    for name, all_token, known in (
        ("split_kinds", "both", SPLIT_KINDS), ("model_kinds", "all", MODEL_KINDS)
    ):
        if name in run:
            run[name] = _expand_kinds(run[name], all_token, known)
    cfg_seed = run.setdefault("seed", DEFAULT_SEED)
    cfg = RunConfig(
        **run,
        vectorizer=VectorizerConfig(**values[VectorizerConfig]),
        hyper=Hyperparams(**values[Hyperparams], seed=derive_seed(cfg_seed, "init")),
    )
    base_dir = os.path.dirname(os.path.abspath(path))
    for name in ("news_path", "behaviors_path", "embeddings_path", "out_dir"):
        p = getattr(cfg, name)
        if p is not None and not os.path.isabs(p):
            setattr(cfg, name, os.path.normpath(os.path.join(base_dir, p)))
    cfg.validate()
    return cfg
