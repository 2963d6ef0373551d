"""The run directory against its table, `coldrec.artifacts.RUN_FILES`.

A desk run writes exactly the table's files for its config, each stage writes
exactly the entries listed under it and reads no file that does not list it as
a reader, an emptied file is an error naming it in every stage that reads it,
a file cut short or a matrix holding a NaN is no error or one naming it there,
the README's output tree is the table, and no other string in the package
names a run file.
"""

import ast
import contextlib
import io
import itertools
import os
import pathlib
import re
import shutil

import numpy as np
import pytest

import coldrec
from coldrec.artifacts import RUN_FILES, load_csr, load_matrix, save_csr, save_matrix
from coldrec.cli import main
from coldrec.config import FEATURE_KINDS
from coldrec.fixture import generate_fixture
from coldrec.models import MODEL_KINDS
from coldrec.pipeline import _STAGES
from coldrec.splits import SPLIT_KINDS

README = pathlib.Path(__file__).parent.parent / "README.md"
STAGES = tuple(name for name, _ in _STAGES)

CONFIG = """
seed = 5
[data]
news = "fx/news.tsv"
behaviors = "fx/behaviors.tsv"
embeddings = "fx/embeddings.tsv"
[split]
kind = "both"
[features]
kind = "{features}"
[model]
kind = "all"
latent_dim = 4
iterations = 2
sgd_epochs = 2
negatives = 2
[eval]
ks = [3]
"""


def expand(feature_kind):
    """{path: (writer, readers)} of the table's files in a run on `feature_kind` with every split and
    model kind, `{split}` and `{model}` filled in."""
    files = {}
    for entry in RUN_FILES.values():
        readers = entry.readers
        if isinstance(readers, dict):  # a features file: by the configured feature kind
            if feature_kind not in readers:
                continue
            readers = readers[feature_kind]
        for split, model in itertools.product(SPLIT_KINDS, MODEL_KINDS):
            files[entry.path.format(split=split, model=model)] = (entry.writer, readers)
    return files


def tree(root):
    """The paths of the files below `root`, relative to it, parts joined by `/`."""
    return {
        os.path.relpath(os.path.join(dirpath, name), root).replace(os.sep, "/")
        for dirpath, _, names in os.walk(root) for name in names
    }


def run(command, config, out):
    """`coldrec <command>` into `out`, its stdout swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([command, "--config", config, "--out", str(out)])


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """{feature kind: config path} over one small fixture, with embeddings for every article."""
    root = tmp_path_factory.mktemp("run_files")
    news_path, _ = generate_fixture(12, 40, 0.8, 3, str(root / "fx"))
    ids = [line.split("\t", 1)[0] for line in pathlib.Path(news_path).read_text(encoding="utf-8").splitlines()]
    values = np.random.default_rng(0).uniform(0.0, 0.5, size=(len(ids), 3))
    (root / "fx" / "embeddings.tsv").write_text(
        "#dim 3\n" + "".join("%s\t%s\n" % (a, " ".join(map(str, row))) for a, row in zip(ids, values.tolist()))
    )
    configs = {}
    for kind in FEATURE_KINDS:
        configs[kind] = str(root / ("%s.toml" % kind))
        pathlib.Path(configs[kind]).write_text(CONFIG.format(features=kind))
    return configs


@pytest.fixture(scope="module")
def runs(configs, tmp_path_factory):
    """{feature kind: directory of a `coldrec run`} for each feature kind."""
    root = tmp_path_factory.mktemp("runs")
    for kind, config in configs.items():
        assert run("run", config, root / kind) == 0
    return {kind: root / kind for kind in configs}


@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_a_run_writes_exactly_the_tables_files(runs, kind):
    # a `*.tmp` left behind, or any other file the table does not list, fails here
    assert sorted(tree(runs[kind])) == sorted(expand(kind))


@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_each_stage_writes_exactly_the_entries_listed_under_it(configs, tmp_path, kind):
    files = expand(kind)
    written = set()
    for stage in STAGES:
        assert run(stage, configs[kind], tmp_path) == 0, stage
        new = tree(tmp_path) - written
        assert sorted(new) == sorted(p for p, (writer, _) in files.items() if writer == stage), stage
        written |= new
    assert tree(tmp_path) == written


@pytest.mark.parametrize("stage", STAGES + ("report",))
@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_a_stage_reads_only_the_files_listing_it(configs, runs, tmp_path, kind, stage):
    # every file that does not list the stage as a reader is emptied; the stage still runs, and
    # rewrites each of its files byte for byte
    shutil.copytree(runs[kind], tmp_path, dirs_exist_ok=True)
    files = expand(kind)
    for path, (_, readers) in files.items():
        if stage not in readers:
            (tmp_path / path).write_bytes(b"")
    assert run(stage, configs[kind], tmp_path) == 0
    for path, (writer, _) in files.items():
        if writer == stage:
            assert (tmp_path / path).read_bytes() == (runs[kind] / path).read_bytes(), path


SWEEP = [
    (kind, path, stage)
    for kind in FEATURE_KINDS
    for path, (_, readers) in expand(kind).items()
    for stage in readers
]


@pytest.mark.parametrize("kind, path, stage", SWEEP, ids=["-".join(case) for case in SWEEP])
def test_an_emptied_file_is_an_error_naming_it(configs, runs, tmp_path, capsys, kind, path, stage):
    shutil.copytree(runs[kind], tmp_path, dirs_exist_ok=True)
    emptied = tmp_path / path
    emptied.write_bytes(b"")
    assert run(stage, configs[kind], tmp_path) == 1
    err = capsys.readouterr().err
    if path.endswith(".tsv"):
        assert err == "error: %s: no rows\n" % emptied
    else:
        assert err.startswith("error: %s: " % emptied) and err.count("\n") == 1, err
    assert "Traceback" not in err


def write_nan(path):
    """Write one NaN into the `.npy` matrix or csr `.npz` archive at `path`, in place."""
    if path.suffix == ".npz":
        matrix = load_csr(path)
        matrix.data[0] = np.nan
        save_csr(matrix, path)
    else:
        matrix = load_matrix(path)
        matrix[0, 0] = np.nan
        save_matrix(matrix, path)


DAMAGE = {
    "half": lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
    "all_but_last_byte": lambda path: path.write_bytes(path.read_bytes()[:-1]),
    "nan": write_nan,
}
DAMAGE_SWEEP = [
    case + (damage,)
    for case in SWEEP
    for damage in DAMAGE
    if damage != "nan" or case[1].endswith((".npy", ".npz"))
]


@pytest.mark.parametrize("kind, path, stage, damage", DAMAGE_SWEEP, ids=["-".join(case) for case in DAMAGE_SWEEP])
def test_a_damaged_file_is_no_error_or_one_error_naming_it(configs, runs, tmp_path, capsys, kind, path, stage,
                                                           damage):
    # a file cut short may still parse (a tsv cut at a line end); a NaN in a matrix never loads
    shutil.copytree(runs[kind], tmp_path, dirs_exist_ok=True)
    damaged = tmp_path / path
    DAMAGE[damage](damaged)
    rc = run(stage, configs[kind], tmp_path)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc == 1 if damage == "nan" else rc in (0, 1)
    if rc == 1:
        assert err.startswith("error: %s: " % damaged) and err.count("\n") == 1, err


def readme_tree():
    """The file paths of the README's output tree: each line one directory (ending in `/`) or one
    file, indented two spaces per level below `out/`, with a `#` comment after it."""
    block = re.search(r"```\nout/\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    parents, paths = [], []
    for line in block.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2 - 1
        name = line.split()[0]
        del parents[depth:]
        if name.endswith("/"):
            parents.append(name)
        else:
            paths.append("".join(parents) + name)
    return paths


def test_the_readme_output_tree_is_the_table():
    assert sorted(readme_tree()) == sorted(entry.path for entry in RUN_FILES.values())


def test_each_run_file_is_named_once_in_the_package():
    """Outside docstrings and comments, a run file's name is spelled only in its RUN_FILES entry."""
    paths = [entry.path for entry in RUN_FILES.values()]
    assert len(set(paths)) == len(paths)
    names = {path.rsplit("/", 1)[-1] for path in paths}
    package = pathlib.Path(coldrec.__file__).parent
    spelled = []
    for source in sorted(package.rglob("*.py")):
        module = ast.parse(source.read_text(encoding="utf-8"))
        skipped = set()
        for node in ast.walk(module):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                skipped.add(id(body[0].value))  # a docstring
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["RUN_FILES"]:
                skipped |= {id(n) for n in ast.walk(node.value)}
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
                spelled += ["%s:%d: %s" % (source.name, node.lineno, n) for n in names if n in node.value]
    assert spelled == []
