import argparse
import contextlib
import errno
import functools
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from coldrec import metrics as metrics_mod
from coldrec.artifacts import load_matrix, save_matrix
from coldrec.cli import build_parser, main
from coldrec.config import FEATURE_KINDS, derive_seed, load_config
from coldrec.features import FeatureMatrix, VectorizerConfig
from coldrec.fixture import generate_fixture
from coldrec.metrics import candidate_universe
from coldrec.models import MODEL_KINDS, Hyperparams, load_model
from coldrec.pipeline import _STAGES, load_features, save_features
from coldrec.splits import load_split

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs coldrec.cli as `python -m coldrec.cli` does, with scipy blocked (any
# scipy import raises ImportError), and at exit writes the scipy modules then
# loaded in sys.modules to the path in COLDREC_MODULES_OUT.
_MODULES_AT_EXIT = """
import atexit, json, os, runpy, sys

sys.modules["scipy"] = None

def dump():
    loaded = sorted(
        m for m, module in sys.modules.items()
        if (m == "scipy" or m.startswith("scipy.")) and module is not None
    )
    with open(os.environ["COLDREC_MODULES_OUT"], "w") as fh:
        json.dump(loaded, fh)

atexit.register(dump)
runpy.run_module("coldrec.cli", run_name="__main__", alter_sys=True)
"""

CONFIG_TEMPLATE = """
seed = 5

[data]
news = "fx/news.tsv"
behaviors = "fx/behaviors.tsv"
{extra_data}

[transitions]
window_seconds = 1800

[split]
kind = "both"
cold_fraction = 0.1
warm_fraction = 0.2

[features]
kind = "{features}"
max_vocab = 500

[model]
kind = "{model}"
latent_dim = 8
iterations = 4
sgd_epochs = 5
negatives = 2

[eval]
ks = [3, 5]

[output]
dir = "out"
"""


def write_config(dirpath, model="all", features="tfidf", extra_data=""):
    path = os.path.join(dirpath, "run.toml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG_TEMPLATE.format(model=model, features=features, extra_data=extra_data))
    return path


def config_at(dirpath, text):
    path = os.path.join(dirpath, "run.toml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def data_section(workspace):
    """A [data] section naming the workspace's fixture files by absolute path."""
    return '[data]\nnews = "%s"\nbehaviors = "%s"\n' % (
        os.path.join(workspace, "fx", "news.tsv"),
        os.path.join(workspace, "fx", "behaviors.tsv"),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    generate_fixture(12, 40, 0.8, 3, os.path.join(root, "fx"))
    return str(root)


@pytest.fixture(scope="module")
def run_out(workspace):
    """One `run` into `run_out/`, shared by every test that reads it.

    Returns (exit code, captured stdout, run directory), so each such test
    passes on its own, whatever else runs.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["run", "--config", write_config(workspace), "--out", os.path.join(workspace, "run_out")])
    return rc, stdout.getvalue(), os.path.join(workspace, "run_out")


class TestConfigParsing:
    def test_sections_and_scalars(self, workspace, tmp_path):
        cfg = load_config(config_at(tmp_path, "seed = 9\n" + data_section(workspace) + (
            "[features]\nstopwords = true\n[split]\ncold_fraction = 0.25\n[eval]\nks = [1, 2]\n"
        )))
        assert cfg.seed == 9
        assert cfg.news_path == os.path.join(workspace, "fx", "news.tsv")
        assert cfg.vectorizer.remove_stopwords is True
        assert cfg.cold_fraction == 0.25
        assert cfg.ks == [1, 2]

    def test_comments_and_blank_lines(self, workspace, tmp_path):
        text = "# hello\n\nseed = 1  # trailing\n" + data_section(workspace)
        cfg = load_config(config_at(tmp_path, text))
        assert cfg.seed == 1

    def test_bad_line_raises(self, tmp_path):
        path = config_at(tmp_path, "just some words\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(path + ": ")

    def test_hash_inside_a_quoted_path_is_not_a_comment(self, tmp_path):
        data_dir = tmp_path / "d#1"
        data_dir.mkdir()
        for name in ("news.tsv", "behaviors.tsv"):
            (data_dir / name).write_text("")
        text = '[data]\nnews = "d#1/news.tsv"  # the news\nbehaviors = "d#1/behaviors.tsv"\n'
        cfg = load_config(config_at(tmp_path, text))
        assert cfg.news_path == str(data_dir / "news.tsv")
        assert cfg.behaviors_path == str(data_dir / "behaviors.tsv")

    @pytest.mark.parametrize(
        "text, name",
        [
            ('[features]\nstopwords = "false"\n', "features.stopwords"),
            ("[model]\nnegative = 3\n", "model.negative"),
            ("[model]\nseed = 3\n", "model.seed"),
            ("[model]\nlatent_dim = 16.5\n", "model.latent_dim"),
            ("[model]\niterations = true\n", "model.iterations"),
            ("[transitions]\nwindow_seconds = 1800.0\n", "transitions.window_seconds"),
            ("[eval]\nks = [5.5]\n", "eval.ks"),
            ("[eval]\nks = [true]\n", "eval.ks"),
            ("[eval]\nks = 5\n", "eval.ks"),
            ('[split]\ncold_fraction = "0.1"\n', "split.cold_fraction"),
            ("[nosuch]\nx = 1\n", "[nosuch]"),
            ("[nosuch]\n", "[nosuch]"),
            ("[output]\ndir = 3\n", "output.dir"),
        ],
    )
    def test_unknown_or_mistyped_key_names_path_and_key(self, workspace, tmp_path, text, name):
        path = config_at(tmp_path, data_section(workspace) + text)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(path + ": ")
        assert name in str(err.value)

    def test_unknown_top_level_key_is_named(self, workspace, tmp_path):
        path = config_at(tmp_path, "sed = 3\n" + data_section(workspace))
        with pytest.raises(ValueError, match=r"unknown key sed$"):
            load_config(path)

    def test_duplicated_key_raises_naming_path(self, workspace, tmp_path):
        text = data_section(workspace) + "[model]\nlatent_dim = 8\nlatent_dim = 16\n"
        path = config_at(tmp_path, text)
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value).startswith(path + ": ")

    def test_int_accepted_for_float_and_stored_as_float(self, workspace, tmp_path):
        cfg = load_config(config_at(tmp_path, data_section(workspace) + "[model]\nreg_mapping = 2\n"))
        assert type(cfg.hyper.reg_mapping) is float and cfg.hyper.reg_mapping == 2.0

    @pytest.mark.parametrize(
        "text, message",
        [
            # an int fraction is read as a float, then range-checked
            ("[split]\ncold_fraction = 0\n", r"split\.cold_fraction must be in \(0, 1\), got 0\.0$"),
            ("[split]\ncold_fraction = 1.5\n", r"split\.cold_fraction must be in \(0, 1\), got 1\.5$"),
            ("[split]\nwarm_fraction = 1.0\n", r"split\.warm_fraction must be in \(0, 1\), got 1\.0$"),
            ("[transitions]\nwindow_seconds = 0\n", r"transitions\.window_seconds must be >= 1, got 0$"),
        ],
    )
    def test_split_and_window_out_of_range_name_the_key(self, workspace, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            load_config(config_at(tmp_path, data_section(workspace) + text))

    def test_shipped_split_and_window_values_load(self, workspace, tmp_path):
        # the values configs/fixture.toml and the benchmark's run configs use
        cfg = load_config(config_at(tmp_path, data_section(workspace) + (
            "[transitions]\nwindow_seconds = 1800\n[split]\ncold_fraction = 0.1\nwarm_fraction = 0.2\n"
        )))
        assert (cfg.window_seconds, cfg.cold_fraction, cfg.warm_fraction) == (1800, 0.1, 0.2)

    def test_features_keys_fill_the_vectorizer_config(self, workspace, tmp_path):
        cfg = load_config(config_at(tmp_path, data_section(workspace) + (
            "[features]\nmax_vocab = 7\nmin_token_len = 3\nstopwords = false\n"
        )))
        assert cfg.vectorizer == VectorizerConfig(
            min_token_len=3, max_vocab=7, remove_stopwords=False
        )
        defaults = load_config(config_at(tmp_path, data_section(workspace)))
        assert defaults.vectorizer == VectorizerConfig()

    @pytest.mark.parametrize("max_vocab", [0, -3])
    def test_max_vocab_must_be_positive(self, workspace, tmp_path, max_vocab):
        text = data_section(workspace) + "[features]\nmax_vocab = %d\n" % max_vocab
        path = config_at(tmp_path, text)
        with pytest.raises(ValueError, match="max_vocab must be >= 1"):
            load_config(path)

    def test_relative_paths_resolved_against_config_dir(self, workspace):
        cfg = load_config(write_config(workspace))
        assert cfg.news_path == os.path.join(workspace, "fx", "news.tsv")
        assert cfg.out_dir == os.path.join(workspace, "out")

    def test_overrides(self, workspace):
        cfg = load_config(
            write_config(workspace), seed=99, model="almm", out_dir="elsewhere"
        )
        assert cfg.seed == 99
        assert cfg.model_kinds == ["almm"]
        assert cfg.out_dir == os.path.join(workspace, "elsewhere")

    def test_missing_model_keys_take_hyperparams_defaults(self, workspace, tmp_path):
        path = os.path.join(tmp_path, "run.toml")
        with open(path, "w") as fh:
            fh.write('[data]\nnews = "%s"\nbehaviors = "%s"\n[model]\nnegatives = 3\n' % (
                os.path.join(workspace, "fx", "news.tsv"),
                os.path.join(workspace, "fx", "behaviors.tsv"),
            ))
        hyper = load_config(path).hyper
        defaults = Hyperparams()
        assert hyper.negatives_per_positive == 3
        for name in ("latent_dim", "iterations", "sgd_epochs", "reg_mapping", "sgd_lr"):
            assert getattr(hyper, name) == getattr(defaults, name)
            assert type(getattr(hyper, name)) is type(getattr(defaults, name))

    def test_missing_data_file_names_path(self, tmp_path):
        path = os.path.join(tmp_path, "run.toml")
        with open(path, "w") as fh:
            fh.write('[data]\nnews = "missing.tsv"\nbehaviors = "missing2.tsv"\n')
        with pytest.raises(FileNotFoundError) as err:
            load_config(path)
        assert "missing" in str(err.value)


class TestDeriveSeed:
    def test_documented_formula(self):
        import hashlib

        digest = hashlib.sha256(b"42:split").digest()
        expected = int.from_bytes(digest[:8], "little") % (2**32)
        assert derive_seed(42, "split") == expected

    def test_distinct_stages_distinct_seeds(self):
        stages = ["split", "init", "negatives", "fixture"]
        seeds = {derive_seed(7, s) for s in stages}
        assert len(seeds) == len(stages)


class TestCliChoices:
    def test_subcommands_and_choices_come_from_their_sources(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        stage_names = [name for name, _ in _STAGES]
        assert list(commands.choices) == ["run", *stage_names, "report", "fixture"]
        for name in ("run", "report", *stage_names):
            flags = commands.choices[name]._option_string_actions
            assert tuple(flags["--model"].choices) == MODEL_KINDS + ("all",)
            assert tuple(flags["--features"].choices) == FEATURE_KINDS


class TestCliCommands:
    @pytest.fixture(autouse=True)
    def in_workspace(self, workspace, monkeypatch):
        """Run from the workspace, where the config lives, so a bare `--out` name lands beside it."""
        monkeypatch.chdir(workspace)

    def test_fixture_subcommand(self, tmp_path, capsys):
        rc = main(
            ["fixture", "--users", "5", "--articles", "16", "--signal", "0.5",
             "--seed", "2", "--out", str(tmp_path / "fx")]
        )
        assert rc == 0
        assert os.path.exists(tmp_path / "fx" / "news.tsv")
        assert os.path.exists(tmp_path / "fx" / "behaviors.tsv")

    def test_run_writes_artifacts_and_summary(self, run_out):
        rc, out, base = run_out
        assert rc == 0
        assert "Standard Evaluation" in out
        assert "Cold-Start Evaluation" in out
        for rel in (
            "metrics.csv",
            "run.log",
            "triplets.tsv",
            os.path.join("ingest", "catalog.tsv"),
            os.path.join("splits", "cold", "manifest.json"),
            os.path.join("models", "almm-cold", "U.npy"),
        ):
            assert os.path.exists(os.path.join(base, rel)), rel

    def test_run_log_has_counters_and_comparison(self, run_out):
        log_path = os.path.join(run_out[2], "run.log")
        with open(log_path) as fh:
            text = fh.read()
        assert "news_rows_read = " in text
        assert "split_cold_train_entries = " in text
        assert "recall_almm_cold_at_5 = " in text
        assert "cold_almm_beats_forbes_recall_at_3 = " in text
        assert "train_forbes_cold_final_loss = " in text

    def test_run_log_counts_negative_shortfall(self, run_out):
        with open(os.path.join(run_out[2], "run.log")) as fh:
            counters = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
        for kind in ("warm", "cold"):
            expected = 3 * int(counters["split_%s_train_entries" % kind]) - int(
                counters["train_%s_instances" % kind]
            )  # negatives = 2 per positive
            assert int(counters["train_%s_negatives_shortfall" % kind]) == expected

    def test_run_log_counts_evaluation_queries(self, run_out):
        base = run_out[2]
        with open(os.path.join(base, "run.log")) as fh:
            counters = dict(line.rstrip("\n").split(" = ", 1) for line in fh)
        for kind in ("warm", "cold"):
            split = load_split(os.path.join(base, "splits", kind))
            universe = candidate_universe(split)
            assert int(counters["evaluate_%s_queries" % kind]) == int(
                counters["split_%s_test_entries" % kind]
            )
            for model_kind in MODEL_KINDS:  # every model of a split gives the same counts
                model = load_model(os.path.join(base, "models", "%s-%s" % (model_kind, kind)))
                unseen = sum(t.user not in model.users for t in split.test)
                cold = sum(a not in model.articles for a in universe)
                assert int(counters["evaluate_%s_unseen_user_queries" % kind]) == unseen
                assert int(counters["evaluate_%s_cold_candidates" % kind]) == cold
        # a cold split's test triplets all touch held-out articles, none trained on
        assert int(counters["evaluate_cold_cold_candidates"]) >= 1

    def test_rerun_is_byte_identical(self, workspace, run_out):
        config = write_config(workspace)
        first = os.path.join(run_out[2], "metrics.csv")
        with open(first, "rb") as fh:
            baseline = fh.read()
        rc = main(["run", "--config", config, "--out", "run_out_again"])
        assert rc == 0
        with open(os.path.join(workspace, "run_out_again", "metrics.csv"), "rb") as fh:
            assert fh.read() == baseline
        with open(os.path.join(run_out[2], "run.log"), "rb") as a, open(
            os.path.join(workspace, "run_out_again", "run.log"), "rb"
        ) as b:
            assert a.read() == b.read()

    def test_stagewise_equals_single_shot(self, workspace, run_out, capsys):
        config = write_config(workspace)
        for stage in ("ingest", "triplets", "split", "featurize", "train", "evaluate"):
            rc = main([stage, "--config", config, "--out", "stage_out"])
            assert rc == 0, stage
        for rel in ("metrics.csv", os.path.join("ingest", "messages.txt")):
            with open(os.path.join(run_out[2], rel), "rb") as a, open(
                os.path.join(workspace, "stage_out", rel), "rb"
            ) as b:
                assert a.read() == b.read(), rel

    @pytest.mark.parametrize("command", ["run", "fixture"])
    def test_run_never_imports_scipy(self, workspace, tmp_path, command):
        # the tests import scipy as an oracle, so the command runs in a child
        modules_out = tmp_path / "modules.json"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p),
            COLDREC_MODULES_OUT=str(modules_out),
        )
        args, output = {
            "run": (["run", "--config", write_config(workspace), "--out", str(tmp_path / "out")], "metrics.csv"),
            "fixture": (["fixture", "--users", "5", "--articles", "16", "--out", str(tmp_path / "out")], "news.tsv"),
        }[command]
        proc = subprocess.run(
            [sys.executable, "-c", _MODULES_AT_EXIT, *args],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "out" / output)
        assert json.loads(modules_out.read_text()) == []

    def test_report_subcommand(self, workspace, run_out, capsys):
        config = write_config(workspace)
        rc = main(["report", "--config", config, "--out", "run_out"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MAP@3" in out
        assert "almm" in out

    def test_report_on_truncated_metrics_fails_with_message(self, workspace, run_out, capsys):
        config = write_config(workspace)
        with open(os.path.join(run_out[2], "metrics.csv")) as fh:
            head = fh.readlines()[:20]  # cut at a line boundary, as a killed run leaves it
        os.makedirs(os.path.join(workspace, "cut_out"))
        with open(os.path.join(workspace, "cut_out", "metrics.csv"), "w") as fh:
            fh.writelines(head)
        rc = main(["report", "--config", config, "--out", "cut_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert "forbes,cold,3 lacks metric rows: recall, novelty" in err

    def test_report_on_header_only_metrics_fails_naming_the_path(self, workspace, run_out, capsys):
        config = write_config(workspace)
        with open(os.path.join(run_out[2], "metrics.csv")) as fh:
            header = fh.readline()
        os.makedirs(os.path.join(workspace, "header_out"))
        path = os.path.join(workspace, "header_out", "metrics.csv")
        with open(path, "w") as fh:
            fh.write(header)
        rc = main(["report", "--config", config, "--out", "header_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: no metric rows\n" % path

    def test_evaluate_rejects_a_model_dir_mixed_across_splits(self, workspace, run_out, capsys):
        shutil.copytree(run_out[2], os.path.join(workspace, "mixed_out"))
        models_dir = os.path.join(workspace, "mixed_out", "models")
        warm_x = load_model(os.path.join(models_dir, "almm-warm")).last_factors
        cold = load_model(os.path.join(models_dir, "almm-cold"))
        assert warm_x.shape[0] != len(cold.articles)
        shutil.copy(os.path.join(models_dir, "almm-warm", "X.npy"), os.path.join(models_dir, "almm-cold"))
        rc = main(["evaluate", "--config", write_config(workspace), "--out", "mixed_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: %s: shape " % os.path.join(models_dir, "almm-cold", "X.npy"))

    @pytest.mark.parametrize("case", ["missing_ids", "repeated_id"])
    def test_evaluate_rejects_a_malformed_feature_meta_file(self, workspace, run_out, capsys, case):
        out = "meta_%s_out" % case
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        meta_path = os.path.join(workspace, out, "features", "tfidf.meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        if case == "missing_ids":
            del meta["ids"]
            expected = "missing key ids"
        else:  # used to surface as "feature matrix is missing 1 article id(s)", naming neither file nor repeat
            meta["ids"][2] = meta["ids"][0]
            expected = "ids lists %s more than once" % meta["ids"][0]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: %s\n" % (meta_path, expected)

    @pytest.mark.parametrize("cut", ["500_bytes", "half", "30_short"])
    def test_evaluate_rejects_a_truncated_feature_archive(self, workspace, run_out, capsys, cut):
        out = "truncated_npz_out_%s" % cut
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, "features", "tfidf.npz")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: {"500_bytes": 500, "half": len(blob) // 2, "30_short": len(blob) - 30}[cut]])
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: %s: not an .npz archive: " % path)
        assert err.count("\n") == 1

    def test_evaluate_rejects_non_finite_model_factors(self, workspace, run_out, capsys):
        shutil.copytree(run_out[2], os.path.join(workspace, "nan_out"))
        path = os.path.join(workspace, "nan_out", "models", "almm-cold", "U.npy")
        save_matrix(np.full_like(load_matrix(path), np.nan), path)
        rc = main(["evaluate", "--config", write_config(workspace), "--out", "nan_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: non-finite values\n" % path

    @pytest.mark.parametrize("case", ["repeated_user", "dict_form", "unknown_kind", "float_latent_dim"])
    def test_evaluate_rejects_a_model_manifest_its_writer_cannot_write(self, workspace, run_out, capsys, case):
        out = "manifest_%s_out" % case
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, "models", "almm-cold", "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        users = manifest["users"]
        if case == "repeated_user":
            users[1] = users[0]
            expected = "users lists %s more than once" % users[0]
        elif case == "dict_form":  # the {id: row index} form, where nothing tied an index to a row
            manifest["users"] = {user: row for row, user in enumerate(users)}
            expected = "users must be a list of ids"
        elif case == "unknown_kind":
            manifest["kind"] = "foo"
            expected = "kind must be one of almm, forbes, oord, got 'foo'"
        else:  # used to end in a TypeError traceback when scoring
            manifest["hyperparams"]["latent_dim"] = 8.0
            expected = "hyperparams.latent_dim must be an integer, got 8.0"
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: %s\n" % (path, expected)

    @pytest.mark.parametrize(
        "directory, kind",
        [(os.path.join("splits", "warm"), "cold"), (os.path.join("models", "almm-cold"), "oord")],
        ids=["split", "model"],
    )
    def test_evaluate_rejects_a_manifest_of_another_kind_than_its_directory(
        self, workspace, run_out, capsys, directory, kind
    ):
        # both used to exit 0, the directory's rows missing from metrics.csv
        out = "other_kind_%s_out" % kind
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, directory, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        expected, manifest["kind"] = manifest["kind"], kind
        if directory.startswith("splits"):  # a warm split relabelled cold breaks the cold invariant first
            shutil.rmtree(os.path.dirname(path))
            shutil.copytree(os.path.join(workspace, out, "splits", kind), os.path.dirname(path))
        else:
            with open(path, "w") as fh:
                json.dump(manifest, fh)
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: kind must be %r for this path, got %r\n" % (
            path, expected, kind)

    @pytest.mark.parametrize(
        "metric, field, value, expected",
        [
            ("map", 2, "0", "k must be >= 1, got 0"),
            ("map", 3, "bogus", "metric must be one of map, recall, novelty, diversity, got 'bogus'"),
            ("map", 4, "nan", "map must be finite, got nan"),
            ("novelty", 4, "inf", "novelty must be finite, got inf"),
            ("map", 4, "-3", "map must be >= 0, got -3.0"),
            ("recall", 4, "-3", "recall must be >= 0, got -3.0"),
            ("novelty", 4, "-3", "novelty must be >= 0, got -3.0"),
        ],
        ids=["k_0", "unknown_metric", "nan", "inf", "negative_map", "negative_recall", "negative_novelty"],
    )
    def test_report_rejects_a_metrics_value_its_writer_cannot_write(
        self, workspace, run_out, capsys, metric, field, value, expected
    ):
        with open(os.path.join(run_out[2], "metrics.csv")) as fh:
            lines = fh.readlines()
        lineno = next(n for n, line in enumerate(lines, start=1) if line.split(",")[3] == metric)
        fields = lines[lineno - 1].split(",")
        fields[field] = value + "\n" * (field == 4)
        lines[lineno - 1] = ",".join(fields)
        out = "bad_metrics_%s_%d_%s_out" % (metric, field, value)
        os.makedirs(os.path.join(workspace, out))
        path = os.path.join(workspace, out, "metrics.csv")
        with open(path, "w") as fh:
            fh.writelines(lines)
        rc = main(["report", "--config", write_config(workspace), "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: line %d: %s\n" % (path, lineno, expected)

    def test_a_relative_out_is_taken_from_the_working_directory(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ingest", "--config", write_config(workspace), "--out", "rel_out"]) == 0
        assert os.path.exists(tmp_path / "rel_out" / "ingest" / "catalog.tsv")
        assert not os.path.exists(os.path.join(workspace, "rel_out"))

    def test_report_rejects_a_metrics_row_listed_twice(self, workspace, run_out, capsys):
        with open(os.path.join(run_out[2], "metrics.csv")) as fh:
            lines = fh.readlines()
        lines.insert(5, lines[2])
        os.makedirs(os.path.join(workspace, "twice_metrics_out"))
        path = os.path.join(workspace, "twice_metrics_out", "metrics.csv")
        with open(path, "w") as fh:
            fh.writelines(lines)
        rc = main(["report", "--config", write_config(workspace), "--out", "twice_metrics_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: line 6: model %s, setting %s, k %s, metric %s is listed twice\n" % (
            path, *lines[2].split(",")[:4])

    @pytest.mark.parametrize("case", ["negative_count", "repeated_article"])
    def test_evaluate_rejects_a_popularity_file_its_writer_cannot_write(self, workspace, run_out, capsys, case):
        out = "popularity_%s_out" % case
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, "ingest", "popularity.tsv")
        with open(path) as fh:
            lines = fh.readlines()
        article = lines[0].split("\t")[0]
        if case == "negative_count":
            lines[0] = "%s\t-100000\n" % article
            expected = "line 1: count must be >= 0, got -100000"
        else:
            lines[1] = lines[0]
            expected = "line 2: article %s is listed twice" % article
        with open(path, "w") as fh:
            fh.writelines(lines)
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: %s\n" % (path, expected)

    def test_evaluate_names_the_split_articles_popularity_lacks(self, workspace, run_out, capsys):
        # a popularity.tsv cut to 3 lines used to exit 0, each unlisted article's novelty that of one click
        out = "short_popularity_out"
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, "ingest", "popularity.tsv")
        with open(path) as fh:
            lines = fh.readlines()[:3]
        with open(path, "w") as fh:
            fh.writelines(lines)
        warm = load_split(os.path.join(run_out[2], "splits", "warm"))  # the first split evaluated
        unlisted = sorted(set(candidate_universe(warm)) - {line.split("\t")[0] for line in lines})
        rc = main(["evaluate", "--config", write_config(workspace), "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: missing %d article id(s) of the warm split: %s\n" % (
            path, len(unlisted), ", ".join(unlisted))

    @pytest.mark.parametrize("case", ["zero_timestamp", "negative_rank", "reversed_user"])
    def test_triplets_rejects_streams_its_writer_cannot_write(self, workspace, run_out, capsys, case):
        out = "streams_%s_out" % case
        shutil.copytree(os.path.join(run_out[2], "ingest"), os.path.join(workspace, out, "ingest"))
        path = os.path.join(workspace, out, "ingest", "streams.tsv")
        with open(path) as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        if case == "reversed_user":  # the user with the most events, as in a reversed desk-run stream
            user = max(dict.fromkeys(r[0] for r in rows), key=lambda u: sum(r[0] == u for r in rows))
            spots = [n for n, r in enumerate(rows) if r[0] == user]
            for n, row in zip(spots, [rows[n] for n in reversed(spots)]):
                rows[n] = row
            expected = "user %s's events are out of (timestamp, rank) order\n" % user
        else:
            rows[4][2:] = ["0", "0"] if case == "zero_timestamp" else [rows[4][2], "-1"]
            expected = "line 5: timestamp must be > 0 and rank >= 0, got %s and %s\n" % tuple(rows[4][2:])
        with open(path, "w") as fh:
            fh.writelines("\t".join(r) + "\n" for r in rows)
        rc = main(["triplets", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: %s: line " % path) and err.endswith(expected)

    @pytest.mark.parametrize("case", ["empty_id", "repeated_id"])
    def test_featurize_rejects_a_catalog_its_writer_cannot_write(self, workspace, run_out, capsys, case):
        out = "catalog_%s_out" % case
        shutil.copytree(os.path.join(run_out[2], "ingest"), os.path.join(workspace, out, "ingest"))
        path = os.path.join(workspace, out, "ingest", "catalog.tsv")
        with open(path) as fh:
            lines = fh.readlines()
        if case == "empty_id":
            lines[2] = "\t" + lines[2].split("\t", 1)[1]
            expected = "line 3: id must not be empty"
        else:
            lines[2] = lines[0]
            expected = "line 3: id %s is listed twice" % lines[0].split("\t")[0]
        with open(path, "w") as fh:
            fh.writelines(lines)
        rc = main(["featurize", "--config", write_config(workspace), "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: %s\n" % (path, expected)

    @pytest.mark.parametrize(
        "artifact, damage, stage, expected",
        [
            ("ingest/catalog.tsv", 0, "featurize", "line 1: id must not be empty"),
            ("ingest/streams.tsv", 0, "triplets", "line 1: user must not be empty"),
            ("ingest/streams.tsv", 1, "triplets", "line 1: news must not be empty"),
            ("triplets.tsv", 0, "split", "line 1: user must not be empty"),
            ("triplets.tsv", 2, "split", "line 1: next_article must not be empty"),
            ("splits/warm/train.tsv", 1, "train", "line 1: last_article must not be empty"),
            ("splits/cold/test.tsv", 0, "evaluate", "line 1: user must not be empty"),
            ("ingest/popularity.tsv", 0, "evaluate", "line 1: article must not be empty"),
            ("embeddings.tsv", 0, "featurize", "line 2: id must not be empty"),
            ("ingest/catalog.tsv", "double", "featurize", "line 2: id {0} is listed twice"),
            ("ingest/popularity.tsv", "double", "evaluate", "line 2: article {0} is listed twice"),
            ("triplets.tsv", "double", "split", "line 2: user {0}, last_article {1}, next_article {2} is listed twice"),
            ("splits/cold/train.tsv", "double", "train",
             "line 2: user {0}, last_article {1}, next_article {2} is listed twice"),
            ("metrics.csv", "double", "report", "line 3: model {0}, setting {1}, k {2}, metric {3} is listed twice"),
            ("embeddings.tsv", "double", "featurize", "line 3: id {0} is listed twice"),
            ("triplets.tsv", "self", "split", "line 1: last_article and next_article are both {1}"),
            ("splits/cold/test.tsv", "self", "evaluate", "line 1: last_article and next_article are both {1}"),
            ("features/tfidf.meta.json", 'kind="x"', "train", "kind must be one of tfidf, external, got 'x'"),
            ("features/tfidf.meta.json", 'kind="x"', "evaluate", "kind must be one of tfidf, external, got 'x'"),
            ("features/tfidf.meta.json", 'kind="external"', "evaluate",
             "kind must be 'tfidf' for this path, got 'external'"),
            ("features/tfidf.meta.json", "array", "train", "the file must be a JSON object"),
            ("features/tfidf.meta.json", "extra=1", "evaluate", "unknown key extra"),
            ("features/tfidf.meta.json", "-dim", "train", "missing key dim"),
            ("features/tfidf.meta.json", "dim=4.0", "evaluate", "dim must be an integer, got 4.0"),
            ("features/tfidf.meta.json", "kind=1", "train", "kind must be a string, got 1"),
            ("splits/cold/manifest.json", "array", "train", "the file must be a JSON object"),
            ("splits/cold/manifest.json", "extra=1", "evaluate", "unknown key extra"),
            ("splits/warm/manifest.json", "-seed", "train", "missing key seed"),
            ("splits/cold/manifest.json", 'seed="7"', "evaluate", "seed must be an integer, got '7'"),
            ("splits/warm/manifest.json", "kind=1", "evaluate", "kind must be a string, got 1"),
            ("models/almm-cold/manifest.json", "array", "evaluate", "the file must be a JSON object"),
            ("models/almm-cold/manifest.json", "extra=1", "evaluate", "unknown key extra"),
            ("models/almm-cold/manifest.json", "-loss_trace", "evaluate", "missing key loss_trace"),
            ("models/almm-cold/manifest.json", "kind=1", "evaluate", "kind must be a string, got 1"),
            ("models/oord-warm/manifest.json", "-hyperparams.seed", "evaluate", "missing key hyperparams.seed"),
            ("models/almm-cold/manifest.json", "hyperparams.extra=1", "evaluate", "unknown key hyperparams.extra"),
            ("models/almm-cold/manifest.json", "hyperparams.reg_user=-1.0", "evaluate",
             "hyperparams.reg_user must be finite and >= 0"),
            ("models/forbes-cold/manifest.json", "hyperparams.latent_dim=0", "evaluate",
             "hyperparams.latent_dim must be >= 1"),
            ("models/almm-cold/manifest.json", 'loss_trace=[["init"]]', "evaluate",
             "loss_trace must be a list of [label, finite number] pairs"),
            ("models/almm-cold/manifest.json", 'loss_trace=[["init", "nan"]]', "evaluate",
             "loss_trace must be a list of [label, finite number] pairs"),
        ],
    )
    def test_a_damaged_artifact_is_an_error_naming_it(self, workspace, run_out, capsys, artifact, damage, stage,
                                                      expected):
        # damage: "double" the first row, blank field k of the first row, make that row's next
        # article its last ("self"); or, of a JSON manifest, nest it in an "array", delete "-<key>" or
        # set "<key>=<JSON value>", a dotted key naming a hyperparameter; each must be one error line
        # naming the file (test_run_files empties every file each stage reads)
        out = "damaged_%s_%s_%s_out" % (artifact.replace("/", "_"), damage, stage)
        shutil.copytree(run_out[2], os.path.join(workspace, out))
        path = os.path.join(workspace, out, *artifact.split("/"))
        config = write_config(workspace)
        if artifact == "embeddings.tsv":  # an input, not an artifact: one row per catalog article
            ids = list(load_features(os.path.join(run_out[2], "features", "tfidf")).row_index)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("#dim 2\n")
                fh.writelines("%s\t1.0 %d\n" % (a, n) for n, a in enumerate(ids))
            config = write_config(workspace, features="external", extra_data='embeddings = "%s"' % path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        sep = "," if artifact.endswith(".csv") else "\t"
        row = 1 if artifact in ("metrics.csv", "embeddings.tsv") else 0  # the first row after a header
        fields = lines[row].split(sep)
        if damage == "double":
            lines.insert(row + 1, lines[row])
        elif damage == "self":
            lines[row] = sep.join(fields[:2] + fields[1:2] + fields[3:])
        elif artifact.endswith(".json"):
            doc = json.loads("".join(lines))
            if damage == "array":
                doc = [doc]
            else:
                *parents, key = damage.lstrip("-").split("=")[0].split(".")
                owner = functools.reduce(dict.__getitem__, parents, doc)
                if damage.startswith("-"):
                    del owner[key]
                else:
                    owner[key] = json.loads(damage.split("=", 1)[1])
            lines = [json.dumps(doc)]
        else:
            lines[row] = sep.join(fields[:damage] + [""] + fields[damage + 1:])
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        rc = main([stage, "--config", config, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: %s\n" % (path, expected.format(*fields))

    def test_train_names_the_train_articles_the_features_lack(self, workspace, run_out, capsys):
        out = os.path.join(workspace, "short_features_out")
        shutil.copytree(run_out[2], out)
        base = os.path.join(out, "features", "tfidf")
        features = load_features(base)
        trains = [load_split(os.path.join(out, "splits", kind)).train.articles for kind in ("warm", "cold")]
        dropped = [a for a in trains[0] if a in trains[1]][:2]
        kept = [a for a in features.row_index if a not in dropped]
        save_features(FeatureMatrix(features.rows(kept), "tfidf", {a: r for r, a in enumerate(kept)}), base)
        rc = main(["train", "--config", write_config(workspace), "--out", "short_features_out"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: tfidf feature matrix is missing 2 article id(s): %s\n" % ", ".join(dropped)

    def test_featurize_rejects_an_embeddings_id_listed_twice(self, workspace, run_out, capsys):
        out = "twice_embeddings_out"
        shutil.copytree(os.path.join(run_out[2], "ingest"), os.path.join(workspace, out, "ingest"))
        ids = list(load_features(os.path.join(run_out[2], "features", "tfidf")).row_index)
        path = os.path.join(workspace, "twice_embeddings.tsv")
        with open(path, "w") as fh:
            fh.write("#dim 2\n")
            fh.writelines("%s\t1.0 %d\n" % (a, n) for n, a in enumerate([*ids, ids[0]]))
        config = write_config(workspace, features="external", extra_data='embeddings = "twice_embeddings.tsv"')
        rc = main(["featurize", "--config", config, "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: %s: line %d: id %s is listed twice\n" % (path, len(ids) + 2, ids[0])

    def test_ingest_popularity_leaves_out_the_history_of_skipped_rows(self, tmp_path):
        fx = tmp_path / "fx"
        fx.mkdir()
        (fx / "news.tsv").write_text(
            "".join("N%d\tnews\tworld\tTitle %d\tAbstract %d.\thttp://x/%d\n" % ((k,) * 4) for k in range(1, 6))
        )
        (fx / "behaviors.tsv").write_text(
            "B1\tU1\t11/11/2019 9:00:00 AM\tN1\tN1-1 N2-1\n"
            "B2\tU1\t11/11/2019 9:05:00 AM\tN3 N3\n"  # short row
            "B3\tU2\tnot a time\tN4 N4 N4\tN1-1\n"
            "B4\t\t11/11/2019 9:10:00 AM\tN5\tN2-1\n"  # empty user id
        )
        text = CONFIG_TEMPLATE.format(model="all", features="tfidf", extra_data="")
        assert main(["ingest", "--config", config_at(tmp_path, text)]) == 0
        assert (tmp_path / "out" / "ingest" / "popularity.tsv").read_text() == "N1\t2\nN2\t1\n"
        assert (tmp_path / "out" / "ingest" / "messages.txt").read_text().splitlines() == [
            "behaviors: line 2: malformed behaviors row",
            "behaviors: line 3: unparseable timestamp 'not a time'",
            "behaviors: line 4: empty user id",
        ]

    @pytest.mark.parametrize(
        "command, name",
        [
            ("ingest", "fx/news.tsv"),  # parse_news
            ("ingest", "fx/behaviors.tsv"),  # parse_behaviors
            ("triplets", "out/ingest/streams.tsv"),  # load_streams
            ("split", "out/triplets.tsv"),  # load_triplets
            ("featurize", "out/ingest/catalog.tsv"),  # load_catalog
            ("featurize", "fx/embeddings.tsv"),  # load_external_embeddings
            ("evaluate", "out/ingest/popularity.tsv"),  # load_popularity
            ("report", "out/metrics.csv"),  # load_curves
        ],
    )
    def test_a_non_utf8_byte_is_an_error_naming_the_file_and_line(
        self, workspace, run_out, tmp_path, capsys, command, name
    ):
        shutil.copytree(os.path.join(workspace, "fx"), tmp_path / "fx")
        shutil.copytree(run_out[2], tmp_path / "out")
        ids = load_features(os.path.join(run_out[2], "features", "tfidf")).row_index
        (tmp_path / "fx" / "embeddings.tsv").write_text("#dim 2\n" + "".join("%s\t1.0 0.5\n" % a for a in ids))
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]
        path.write_bytes(b"".join(lines))
        features = "external" if name.endswith("embeddings.tsv") else "tfidf"
        text = CONFIG_TEMPLATE.format(model="all", features=features, extra_data='embeddings = "fx/embeddings.tsv"')
        rc = main([command, "--config", config_at(tmp_path, text)])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: line 2: not UTF-8: invalid start byte\n" % path

    def test_failed_evaluate_keeps_the_earlier_metrics(self, workspace, run_out, capsys, monkeypatch):
        shutil.copytree(run_out[2], os.path.join(workspace, "failed_out"))
        config = write_config(workspace)
        metrics_path = os.path.join(workspace, "failed_out", "metrics.csv")
        with open(metrics_path, "rb") as fh:
            before = fh.read()
        assert main(["report", "--config", config, "--out", "failed_out"]) == 0
        summary = capsys.readouterr().out

        class DiskFull(float):
            def __str__(self):
                raise OSError(errno.ENOSPC, "No space left on device")

        evaluate = metrics_mod.evaluate

        def evaluate_then_fill_the_disk(*args, **kwargs):
            results = evaluate(*args, **kwargs)
            if args[0].kind == "oord":  # a late row: emit_curves has written most of the file
                for values in results.values():
                    values["map"] = DiskFull(values["map"])
            return results

        monkeypatch.setattr(metrics_mod, "evaluate", evaluate_then_fill_the_disk)
        rc = main(["evaluate", "--config", config, "--out", "failed_out"])
        assert rc == 1
        assert "No space left on device" in capsys.readouterr().err
        with open(metrics_path, "rb") as fh:
            assert fh.read() == before
        assert not os.path.exists(metrics_path + ".tmp")
        assert main(["report", "--config", config, "--out", "failed_out"]) == 0
        assert capsys.readouterr().out == summary

    def test_missing_input_path_fails_with_message(self, tmp_path, capsys):
        config = os.path.join(tmp_path, "bad.toml")
        with open(config, "w") as fh:
            fh.write('[data]\nnews = "nowhere/news.tsv"\nbehaviors = "nowhere/b.tsv"\n')
        rc = main(["run", "--config", config])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nowhere" in err

    @pytest.mark.parametrize(
        "extra_data, message",
        [
            ("", 'data.embeddings is required when features.kind is "external"'),
            ('embeddings = "absent.tsv"', "configured input does not exist: {workspace}/absent.tsv"),
        ],
    )
    def test_external_features_name_a_missing_embeddings_input(self, workspace, capsys, extra_data, message):
        config = write_config(workspace, extra_data=extra_data)
        rc = main(["ingest", "--config", config, "--features", "external", "--out", "embeddings_out"])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s\n" % message.format(workspace=workspace)
        assert not os.path.exists(os.path.join(workspace, "embeddings_out"))

    def test_single_model_override(self, workspace):
        config = write_config(workspace)
        rc = main(["run", "--config", config, "--model", "oord", "--out", "oord_out"])
        assert rc == 0
        models_dir = os.path.join(workspace, "oord_out", "models")
        assert sorted(os.listdir(models_dir)) == ["oord-cold", "oord-warm"]
