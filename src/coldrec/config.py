"""Run configuration: a sectioned key = value file (TOML-compatible subset) and seeding.

Supported values: integers, floats, booleans (true/false), double-quoted
strings, and flat arrays of integers. Paths are resolved relative to the
config file's directory. Every stage derives its random seed from the run
seed as SHA-256("<seed>:<stage>"), first 8 bytes little-endian, mod 2^32, so
no stage reads ambient entropy and the structure is reproducible elsewhere.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields

from .models import MODEL_KINDS, Hyperparams

DEFAULT_SEED = 42
SPLIT_KINDS = ("warm", "cold")
FEATURE_KINDS = ("tfidf", "external")
# Hyperparams fields read from a [model] key of another name; the rest use their own.
_MODEL_KEY_NAMES = {"negatives_per_positive": "negatives"}


def derive_seed(base_seed: int, stage: str) -> int:
    """Per-stage substream seed: SHA-256 of '<seed>:<stage>', first 8 bytes LE, mod 2^32."""
    digest = hashlib.sha256(("%d:%s" % (base_seed, stage)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**32)


def _parse_value(text: str, path, lineno: int):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        try:
            return [int(part.strip()) for part in inner.split(",")]
        except ValueError:
            raise ValueError(
                "%s: line %d: arrays may only hold integers" % (path, lineno)
            ) from None
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError("%s: line %d: cannot parse value %r" % (path, lineno, text)) from None


def parse_config_text(text: str, path="<config>") -> dict:
    """Parse the key = value subset into {section: {key: value}}; top-level keys land in ''."""
    sections: dict[str, dict] = {"": {}}
    current = sections[""]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError("%s: line %d: expected key = value" % (path, lineno))
        key, value_text = line.split("=", 1)
        current[key.strip()] = _parse_value(value_text, path, lineno)
    return sections


@dataclass
class RunConfig:
    news_path: str
    behaviors_path: str
    embeddings_path: str | None = None
    window_seconds: int = 1800
    split_kinds: list[str] = field(default_factory=lambda: ["warm", "cold"])
    cold_fraction: float = 0.1
    warm_fraction: float = 0.2
    feature_kind: str = "tfidf"
    max_vocab: int = 5000
    min_token_len: int = 2
    remove_stopwords: bool = True
    model_kinds: list[str] = field(default_factory=lambda: list(MODEL_KINDS))
    hyper: Hyperparams = field(default_factory=Hyperparams)
    ks: list[int] = field(default_factory=lambda: [5, 10, 20])
    out_dir: str = "out"
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        for path, required in (
            (self.news_path, True),
            (self.behaviors_path, True),
            (self.embeddings_path, self.feature_kind == "external"),
        ):
            if required and (path is None or not os.path.exists(path)):
                raise FileNotFoundError("configured input does not exist: %s" % path)
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError("unknown feature kind %r" % self.feature_kind)
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ValueError("unknown model kind %r" % kind)
        for kind in self.split_kinds:
            if kind not in SPLIT_KINDS:
                raise ValueError("unknown split kind %r" % kind)
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("ks must be positive integers")
        self.hyper.validate()


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
    with open(path, "r", encoding="utf-8") as fh:
        sections = parse_config_text(fh.read(), path)
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base_dir, p))

    top = sections.get("", {})
    data = sections.get("data", {})
    trans = sections.get("transitions", {})
    split = sections.get("split", {})
    feats = sections.get("features", {})
    model_sec = sections.get("model", {})
    eval_sec = sections.get("eval", {})
    output = sections.get("output", {})

    for key in ("news", "behaviors"):
        if key not in data:
            raise ValueError("%s: missing required key data.%s" % (path, key))

    cfg_seed = seed if seed is not None else int(top.get("seed", DEFAULT_SEED))
    # a missing [model] key takes the Hyperparams default, cast to the field's type
    defaults = Hyperparams()
    model_values = {}
    for f in fields(Hyperparams):
        if f.name == "seed":
            continue
        default = getattr(defaults, f.name)
        key = _MODEL_KEY_NAMES.get(f.name, f.name)
        model_values[f.name] = type(default)(model_sec.get(key, default))
    hyper = Hyperparams(**model_values, seed=derive_seed(cfg_seed, "init"))
    split_value = split.get("kind", "both")
    model_value = model if model is not None else model_sec.get("kind", "all")
    feature_value = features if features is not None else feats.get("kind", "tfidf")

    cfg = RunConfig(
        news_path=resolve(data.get("news")),
        behaviors_path=resolve(data.get("behaviors")),
        embeddings_path=resolve(data.get("embeddings")),
        window_seconds=int(trans.get("window_seconds", 1800)),
        split_kinds=_expand_kinds(split_value, "both", SPLIT_KINDS),
        cold_fraction=float(split.get("cold_fraction", 0.1)),
        warm_fraction=float(split.get("warm_fraction", 0.2)),
        feature_kind=feature_value,
        max_vocab=int(feats.get("max_vocab", 5000)),
        min_token_len=int(feats.get("min_token_len", 2)),
        remove_stopwords=bool(feats.get("stopwords", True)),
        model_kinds=_expand_kinds(model_value, "all", MODEL_KINDS),
        hyper=hyper,
        ks=list(eval_sec.get("ks", [5, 10, 20])),
        out_dir=resolve(out_dir if out_dir is not None else output.get("dir", "out")),
        seed=cfg_seed,
    )
    cfg.validate()
    return cfg
