import argparse
import contextlib
import io
import os

import pytest

from coldrec.cli import build_parser, main
from coldrec.config import FEATURE_KINDS, derive_seed, load_config
from coldrec.features import VectorizerConfig
from coldrec.fixture import generate_fixture
from coldrec.metrics import candidate_universe
from coldrec.models import MODEL_KINDS, Hyperparams, load_model
from coldrec.pipeline import _STAGES
from coldrec.splits import load_split

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
        rc = main(["run", "--config", write_config(workspace), "--out", "run_out"])
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
            os.path.join("models", "almm-cold", "U.mat"),
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
        with open(os.path.join(run_out[2], "metrics.csv"), "rb") as fh:
            single = fh.read()
        with open(os.path.join(workspace, "stage_out", "metrics.csv"), "rb") as fh:
            staged = fh.read()
        assert staged == single

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

    def test_missing_input_path_fails_with_message(self, tmp_path, capsys):
        config = os.path.join(tmp_path, "bad.toml")
        with open(config, "w") as fh:
            fh.write('[data]\nnews = "nowhere/news.tsv"\nbehaviors = "nowhere/b.tsv"\n')
        rc = main(["run", "--config", config])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nowhere" in err

    def test_single_model_override(self, workspace):
        config = write_config(workspace)
        rc = main(["run", "--config", config, "--model", "oord", "--out", "oord_out"])
        assert rc == 0
        models_dir = os.path.join(workspace, "oord_out", "models")
        assert sorted(os.listdir(models_dir)) == ["oord-cold", "oord-warm"]
