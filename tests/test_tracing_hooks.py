"""The benchmark's view of the coldrec package still resolves.

perfbench/ drives coldrec by name: tracing.py wraps module-level names, and
entries of module-level dicts such as `pipeline._TRAINERS`; its scripts import
coldrec names; child.py runs `pipeline.stage_<name>` for each of its STAGES;
layers.derive reads stage counters by key; check.py and layers.py take the
len() of a loaded split side and iterate it as rows with `.user`,
`.last_article` and `.next_article`. A refactor that renames or deletes one of
these should fail here, not only when a benchmark child process fails.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

from coldrec import pipeline
from coldrec.config import SPLIT_KINDS, load_config
from coldrec.fixture import generate_fixture
from coldrec.models import Instances
from coldrec.splits import load_split, make_cold_split, save_split
from coldrec.transitions import TripletSet

from conftest import synthetic_triplet_set

PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(PERFBENCH_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def parse_perfbench(name):
    with open(os.path.join(PERFBENCH_DIR, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def test_every_traced_name_resolves():
    tracing = load_tracing()
    hooks = [(module, attr) for module, attr, _ in tracing.SPANNED + tracing.COUNTED]
    assert hooks
    missing = []
    for module_name, attr in hooks:
        owner = importlib.import_module(module_name)
        if "[" in attr:
            container, key = attr[:-1].split("[")
            found = key in getattr(owner, container, {})
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append("%s.%s" % (module_name, attr))
    assert missing == []


def test_every_coldrec_import_in_perfbench_resolves():
    imports = []
    for name in sorted(os.listdir(PERFBENCH_DIR)):
        if name.endswith(".py"):
            for node in ast.walk(parse_perfbench(name)):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coldrec":
                    imports += [(name, node.module, alias.name) for alias in node.names]
    assert imports
    missing = []
    for filename, module_name, attr in imports:
        owner = importlib.import_module(module_name)
        if not hasattr(owner, attr) and importlib.util.find_spec(module_name + "." + attr) is None:
            missing.append("%s: %s.%s" % (filename, module_name, attr))
    assert missing == []


def test_child_stages_match_the_pipeline():
    (stages,) = [
        ast.literal_eval(node.value)
        for node in parse_perfbench("child.py").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["STAGES"]
    ]
    assert tuple(stages) == tuple(name for name, _ in pipeline._STAGES)
    for name, stage in pipeline._STAGES:
        assert getattr(pipeline, "stage_" + name, None) is stage
    assert callable(pipeline.metrics_path)


def derive_counter_keys():
    """Stage counter keys `layers.derive` indexes, `%s` expanded per split kind."""
    (derive,) = [
        node for node in parse_perfbench("layers.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "derive"
    ]
    keys = set()
    for node in ast.walk(derive):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "counters":
            key = node.slice.left if isinstance(node.slice, ast.BinOp) else node.slice
            keys |= {key.value.replace("%s", kind) for kind in SPLIT_KINDS}
    return keys


@pytest.fixture(scope="module")
def run_log_keys(tmp_path_factory):
    """The counter names of a small run's run.log."""
    root = tmp_path_factory.mktemp("desk")
    generate_fixture(12, 40, 0.8, 3, str(root / "fx"))
    config = root / "run.toml"
    config.write_text(
        '[data]\nnews = "fx/news.tsv"\nbehaviors = "fx/behaviors.tsv"\n'
        '[model]\nkind = "almm"\nlatent_dim = 4\niterations = 2\n[eval]\nks = [5]\n'
    )
    cfg = load_config(str(config), out_dir="out")
    pipeline.run_pipeline(cfg)
    with open(os.path.join(cfg.out_dir, pipeline.RUN_LOG_FILE), encoding="utf-8") as fh:
        return {line.split(" = ", 1)[0] for line in fh}


def test_counters_layers_derive_reads_are_logged(run_log_keys):
    keys = derive_counter_keys()
    assert {"clicks_kept", "triplets", "tfidf_vocabulary", "split_cold_test_entries"} <= keys
    assert sorted(keys - run_log_keys) == []


def test_loaded_split_sides_iterate_as_named_rows_in_file_order(tmp_path):
    save_split(make_cold_split(synthetic_triplet_set(), 0.1, 7), str(tmp_path), 0.1)
    split = load_split(str(tmp_path))
    for name, side in (("train", split.train), ("test", split.test)):
        with open(tmp_path / (name + ".tsv"), encoding="utf-8") as fh:
            columns = [line.rstrip("\n").split("\t") for line in fh]
        assert len(side) == len(columns) > 0
        rows = [(t.user, t.last_article, t.next_article, t.confidence) for t in side]
        assert rows == [(u, i, j, float(c)) for u, i, j, c in columns]


def test_layers_notes_read_the_arguments_the_pipeline_passes(tmp_path, monkeypatch):
    """perfbench's per-call size notes index positional arguments: sample_negatives'
    (train side, negatives per positive, seed) and a trainer's (instances, content, hyper).
    Each noted name is wrapped where tracing.py wraps it, featurize and train run on a small
    fixture, and every recorded call is fed to its note."""
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())  # layers.py imports it by bare name
    notes = load_perfbench("layers").notes()
    generate_fixture(12, 40, 0.8, 3, str(tmp_path / "fx"))
    config = tmp_path / "run.toml"
    config.write_text(
        '[data]\nnews = "fx/news.tsv"\nbehaviors = "fx/behaviors.tsv"\n'
        '[model]\nkind = "all"\nlatent_dim = 4\niterations = 2\nsgd_epochs = 3\nnegatives = 2\n'
    )
    cfg = load_config(str(config), out_dir="out")
    for _, stage in pipeline._STAGES[:3]:  # ingest, triplets, split
        stage(cfg)
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result

        return wrapper

    for module_name, attr, name in load_tracing().SPANNED:
        if name in notes:
            owner = importlib.import_module(module_name)
            if "[" in attr:
                container, key = attr[:-1].split("[")
                table = getattr(owner, container)
                monkeypatch.setitem(table, key, recording(name, table[key]))
            else:
                monkeypatch.setattr(owner, attr, recording(name, getattr(owner, attr)))
    pipeline.stage_featurize(cfg)
    pipeline.stage_train(cfg)

    assert {name for name, _, _, _ in calls} == set(notes)
    sampled = {}
    for name, args, kwargs, result in calls:
        note = notes[name](args, kwargs, result)
        if name == "models.sample_negatives":
            assert isinstance(args[0], TripletSet) and args[1] == cfg.hyper.negatives_per_positive
            assert isinstance(result, Instances)
            assert note == (len(args[0]) * (1 + args[1]), len(result))
            sampled[id(result)] = result
        elif name == "models.forbes_train":
            instances, content, hyper = args
            assert kwargs == {} and id(instances) in sampled and hyper is cfg.hyper
            assert content.shape[0] == len(instances.articles)
            assert note == len(instances) * 3
        else:
            assert note == (result.matrix.nnz, result.matrix.shape[0])
    assert len(sampled) == len(SPLIT_KINDS)
