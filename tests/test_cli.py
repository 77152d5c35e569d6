import configparser
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import count_calls

from metric_grouper import ablation as ablation_mod
from metric_grouper import cli
from metric_grouper import clustering as clustering_mod
from metric_grouper import config
from metric_grouper.cli import _atomic_write, main
from metric_grouper.corpus import load_corpus, load_word_vectors
from metric_grouper.errors import ConfigError, FormatError
from metric_grouper.fixture import DIMENSION
from metric_grouper.network import TRAINING_RANGES, TrainConfig, load_model
from metric_grouper.pairs import load_pairs

ARTIFACTS = ("pairs.jsonl", "model.json", "clusters.tsv", "metrics.json", "manifest.json")


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    assert run("make-fixture", "--out-dir", str(out)) == 0
    return {
        "corpus": str(out / "corpus.jsonl"),
        "vectors": str(out / "vectors.txt"),
        "taxonomy": str(out / "taxonomy.jsonl"),
        "config": str(out / "config.ini"),
    }


def data_args(files):
    return ["--corpus", files["corpus"], "--vectors", files["vectors"],
            "--taxonomy", files["taxonomy"], "--config", files["config"]]


def _src_env(**extra):
    """The environment of a CLI subprocess that imports this checkout's package."""
    repo = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture(scope="module")
def pipeline_dir(fixture_files, tmp_path_factory):
    """pairs -> train -> cluster -> eval with few epochs, shared by tests."""
    out = tmp_path_factory.mktemp("pipeline")
    args = data_args(fixture_files) + ["--out-dir", str(out), "--epochs", "3"]
    for command in ("pairs", "train", "cluster", "eval"):
        assert run(command, *args) == 0
    return out, args


class TestValidate:
    def test_clean_fixture_exits_zero(self, fixture_files, capsys):
        code = run("validate", *data_args(fixture_files))
        out = capsys.readouterr().out
        assert code == 0
        assert "sentences: 60" in out
        assert "validation: ok" in out

    def test_bad_span_names_line(self, fixture_files, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        records = [
            {"tokens": ["ok", "alpha"], "mentions": [{"phrase": "alpha", "start": 1, "end": 2}]},
            {"tokens": ["alpha"], "mentions": [{"phrase": "alpha", "start": 0, "end": 2}]},
        ]
        bad.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
        code = run("validate", "--corpus", str(bad), "--vectors", fixture_files["vectors"])
        out = capsys.readouterr().out
        assert code == 1
        assert "line 2" in out
        assert "validation: FAILED" in out

    def test_zero_count_concept_is_not_a_mapping(self, fixture_files, tmp_path, capsys):
        # "picture" maps only to a concept with propagated count 0, which
        # lexicon.incompatible cannot use; validate and pairs must agree on that.
        text = Path(fixture_files["taxonomy"]).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        for rec in records:
            if rec.get("word") == "picture":
                rec["concepts"] = ["unused"]
        records.append({"concept": "unused", "count": 0.0, "parents": ["root"]})
        tax = tmp_path / "taxonomy.jsonl"
        tax.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        args = data_args(dict(fixture_files, taxonomy=str(tax)))

        assert run("validate", *args) == 0
        assert "phrases with a concept mapping: 5/6" in capsys.readouterr().out
        assert run("pairs", *args, "--out-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "phrases with no concept mapping (never incompatible): 1/6" in out
        with open(tmp_path / "pairs.jsonl", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert set(header) == {"kind", "config_hash", "eta", "seed", "positives", "negatives"}

    def test_corpus_without_sentences_fails(self, fixture_files, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n", encoding="utf-8")
        code = run("validate", "--corpus", str(empty), "--vectors", fixture_files["vectors"])
        out = capsys.readouterr().out
        assert code == 1
        assert "sentences: 0\n" in out
        assert out.endswith("error: corpus: no sentences loaded\nvalidation: FAILED\n")

    def test_missing_vectors_warn_but_pass(self, fixture_files, tmp_path, capsys):
        vecs = tmp_path / "small.txt"
        vecs.write_text("picture 1.0 0.0\nsound 0.0 1.0\n", encoding="utf-8")
        code = run("validate", "--corpus", fixture_files["corpus"], "--vectors", str(vecs))
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage: 2/27" in out
        assert "warning" in out


# defect -> rows of a token no corpus sentence uses, and the line validate prints for
# them; {n} is the first row's line number and {d} the fixture's vector width
UNUSED_ROW_DEFECTS = {
    "arity": (["{t} 1.0 2.0"], "error: vectors: line {n}: inconsistent dimension: got 2, "
                               "expected {d}"),
    "non-numeric": (["{t}" + " oops" * DIMENSION],
                    "error: vectors: line {n}: non-numeric vector component"),
    "non-finite": (["{t}" + " nan" * DIMENSION],
                   "error: vectors: line {n}: non-finite vector component"),
    "duplicate": (["{t}" + " 1.0" * DIMENSION, "{t}" + " 2.0" * DIMENSION],
                  "warning: 1 duplicate token(s) ignored (first wins)"),
}


@pytest.mark.parametrize("defects", [[name] for name in UNUSED_ROW_DEFECTS]
                         + [list(UNUSED_ROW_DEFECTS)], ids=[*UNUSED_ROW_DEFECTS, "all"])
def test_unused_row_defects_validate_as_without_keep(fixture_files, tmp_path, monkeypatch,
                                                     capsys, defects):
    lines = Path(fixture_files["vectors"]).read_text(encoding="utf-8").splitlines()
    expected = []
    for name in defects:
        rows, message = UNUSED_ROW_DEFECTS[name]
        expected.append(message.format(n=len(lines) + 1, d=DIMENSION))
        lines += [row.format(t=f"unused-{name}") for row in rows]
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = data_args(dict(fixture_files, vectors=str(vecs)))

    tables, outputs = [], []
    for keeps in (True, False):
        def loading(path, errors=None, keep=None, keeps=keeps):
            tables.append(load_word_vectors(path, errors=errors, keep=keep if keeps else None))
            return tables[-1]

        monkeypatch.setattr(cli, "load_word_vectors", loading)
        outputs.append((run("validate", *args), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    code, captured = outputs[0]
    assert code == (0 if defects == ["duplicate"] else 1) and captured.err == ""
    assert all(line + "\n" in captured.out for line in expected)
    entries = 30 + ("duplicate" in defects)
    assert f"word vectors: {entries} entries, dimension {DIMENSION}\n" in captured.out
    assert len(tables[0].vectors) == 27 < len(tables[1].vectors)


def _edit_record(key, change):
    """A line edit that applies ``change`` to a JSON record holding ``key``, None elsewhere."""
    def edit(line):
        record = json.loads(line)
        if key not in record:
            return None
        change(record)
        return json.dumps(record)
    return edit


def _non_numeric_component(line):
    token, _first, *rest = line.split()
    return " ".join([token, "oops", *rest])


TOKENS = "'tokens' must be a non-empty array of strings"
TOKEN = "'tokens' entry {} must be a non-empty string with no whitespace, got {}"
IDS = "must be an array of strings or integers"
# (input, edit of the first line it applies to, message). corpus, vectors and taxonomy
# go through validate, pairs.jsonl through train and model.json through cluster.
MALFORMED = [
    pytest.param("corpus", _edit_record("tokens", lambda r: r.update(tokens="the picture")),
                 TOKENS, id="corpus-tokens"),
    pytest.param("corpus", _edit_record("tokens", lambda r: r["tokens"].__setitem__(0, "")),
                 TOKEN.format(0, '""'), id="corpus-token-empty"),
    pytest.param("corpus",
                 _edit_record("tokens", lambda r: r["tokens"].__setitem__(1, "ice cream")),
                 TOKEN.format(1, '"ice cream"'), id="corpus-token-space"),
    pytest.param("corpus", lambda line: "[1]", "record is not a JSON object", id="corpus-array"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r.update(mentions={})),
                 "'mentions' must be an array", id="corpus-mentions-object"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r.update(mentions=[1])),
                 "mention is not a JSON object", id="corpus-mention-number"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r["mentions"][0].update(start="1")),
                 "mention needs string 'phrase' and integer 'start'/'end'", id="corpus-start"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r["mentions"][0].update(group="0")),
                 "'group' must be an integer when present", id="corpus-group"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r["mentions"][0].update(start=False)),
                 "mention needs string 'phrase' and integer 'start'/'end'",
                 id="corpus-start-boolean"),
    pytest.param("corpus", _edit_record("mentions", lambda r: r["mentions"][0].update(group=True)),
                 "'group' must be an integer when present", id="corpus-group-boolean"),
    pytest.param("vectors", _non_numeric_component, "non-numeric vector component",
                 id="vectors-component"),
    pytest.param("taxonomy", _edit_record("concept", lambda r: r.update(count="abc")),
                 "'count' must be a number", id="taxonomy-count-string"),
    pytest.param("taxonomy", _edit_record("concept", lambda r: r.update(count=None)),
                 "'count' must be a number", id="taxonomy-count-null"),
    pytest.param("taxonomy", _edit_record("concept", lambda r: r.update(count=10 ** 400)),
                 "'count' must be a number", id="taxonomy-count-beyond-float"),
    pytest.param("taxonomy", _edit_record("concept", lambda r: r.update(parents="audio-branch")),
                 f"'parents' {IDS}", id="taxonomy-parents-string"),
    pytest.param("taxonomy", _edit_record("concept", lambda r: r.update(concept=["x"])),
                 "'concept' must be a string or an integer", id="taxonomy-concept-array"),
    pytest.param("taxonomy", _edit_record("word", lambda r: r.update(word=3)),
                 "'word' must be a string", id="taxonomy-word-number"),
    pytest.param("taxonomy", _edit_record("word", lambda r: r.update(concepts="leaf-audio")),
                 f"'concepts' {IDS}", id="taxonomy-concepts-string"),
    pytest.param("pairs", _edit_record("label", lambda r: r.update(label=1.9)),
                 "bad pair record (label 1.9 not in {1, -1})", id="pairs-label-fraction"),
    pytest.param("pairs", _edit_record("label", lambda r: r.update(label="-1")),
                 'bad pair record (label "-1" not in {1, -1})', id="pairs-label-string"),
    pytest.param("pairs", _edit_record("label", lambda r: r.update(label=True)),
                 "bad pair record (label true not in {1, -1})", id="pairs-label-boolean"),
    pytest.param("pairs", _edit_record("label", lambda r: r["left"].update(tokens="the picture")),
                 f"bad pair record ({TOKENS})", id="pairs-tokens"),
    pytest.param("pairs", _edit_record("label", lambda r: r["left"]["tokens"].__setitem__(0, "")),
                 "bad pair record (" + TOKEN.format(0, '""') + ")", id="pairs-token-empty"),
    pytest.param("pairs", _edit_record("label", lambda r: r["left"].update(source=[True])),
                 "bad pair record ('source' must be an array of integers)",
                 id="pairs-source-boolean"),
    pytest.param("pairs", _edit_record("label", lambda r: r["left"].update(phrase="zebra")),
                 "bad pair record ('phrase' \"zebra\" does not occur in 'tokens')",
                 id="pairs-phrase-elsewhere"),
    pytest.param("model", lambda doc: doc.update(attention_w=[0.0] * 3),
                 "attention_w has 3 entries, expected 8 for input width 16 in attention mode",
                 id="model-attention_w"),
    pytest.param("model", lambda doc: doc["layers"][0].update(w="abc"), "malformed checkpoint",
                 id="model-weights"),
    pytest.param("model", lambda doc: doc.update(input_dim=99),
                 "input_dim 99 is not the layers' width 16", id="model-input_dim"),
    pytest.param("model", lambda doc: doc.update(output_dim="x"),
                 "output_dim \"x\" is not the layers' width 8", id="model-output_dim"),
]


def _every_line(edit):
    """A whole-file edit that applies line ``edit`` to each line it does not return None for."""
    return lambda text: "".join((edit(line) or line) + "\n" for line in text.splitlines())


# (command, input, whole-file edit, exit code, output line; {path} is the edited file).
# validate prints to stdout, the other commands to stderr.
REPORTED = [
    pytest.param("split", "config", lambda text: "[split]\ntrain_ratio = 0.5\n"
                 "test_ratio = 0.5\ndev_ratio = 0.5\n", 1,
                 "error: split ratios (0.5, 0.5, 0.5) do not sum to 1", id="split-ratios"),
    pytest.param("pairs", "config", lambda text: text + "[bogus]\nk = 1\n", 1,
                 "error: {path}: unknown section [bogus]", id="config-section"),
    pytest.param("pairs", "config", lambda text: "eta = 0.3\n" + text, 1,
                 "error: {path}: File contains no section headers.", id="config-no-header"),
    pytest.param("pairs", "config", lambda text: "[pairs]\neta = 0.3\neta = 0.4\n", 1,
                 "error: {path}: While reading from '{path}' [line  3]: option 'eta' in "
                 "section 'pairs' already exists", id="config-duplicate-key"),
    pytest.param("validate", "vectors", lambda text: text + text.splitlines()[0].upper() + "\n",
                 0, "warning: 1 duplicate token(s) ignored (first wins)", id="vectors-duplicate"),
    pytest.param("validate", "taxonomy", lambda text: text + json.dumps(
                     {"concept": "loop", "count": 1.0, "parents": ["loop"]}) + "\n", 1,
                 "error: taxonomy: concept 'loop' is its own parent", id="taxonomy-own-parent"),
    pytest.param("validate", "taxonomy",
                 _every_line(_edit_record("concept", lambda r: r.update(count=0.0))), 1,
                 "error: taxonomy: total propagated count at the root must be positive",
                 id="taxonomy-zero-counts"),
    pytest.param("validate", "taxonomy", lambda text: text + text.splitlines()[0] + "\n", 1,
                 "error: taxonomy: duplicate concept record 'audio-a'",
                 id="taxonomy-duplicate-concept"),
    pytest.param("cluster", "model", lambda text: text[:text.rindex("}")], 1,
                 "error: {path}: invalid JSON (Expecting ',' delimiter)", id="model-truncated"),
]


@pytest.mark.parametrize("command, name, edit, code, line", REPORTED)
def test_input_problem_reported(fixture_files, pipeline_dir, tmp_path, capsys, command, name,
                                edit, code, line):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    files = dict(fixture_files)
    if name == "model":
        path = Path(shutil.copy(pipeline_dir[0] / "model.json", out_dir))
    else:
        path = Path(shutil.copy(files[name], tmp_path))
        files[name] = str(path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert run(command, *data_args(files), "--out-dir", str(out_dir)) == code
    captured = capsys.readouterr()
    stream = captured.out if command == "validate" else captured.err
    assert line.format(path=path) + "\n" in stream


class TestMalformedInput:
    """A field of the wrong type in any input the pipeline reads ends in exit 1 and a
    message naming the file and, in a line-based file, the line; never in a traceback."""

    @pytest.mark.parametrize("name, edit, message", MALFORMED)
    def test_named_without_traceback(self, fixture_files, pipeline_dir, tmp_path, monkeypatch,
                                     capsys, name, edit, message):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        artifacts = {"pairs": "pairs.jsonl", "model": "model.json"}
        for artifact in artifacts.values():
            shutil.copy(pipeline_dir[0] / artifact, out_dir / artifact)
        files = dict(fixture_files)
        if name in artifacts:
            path = out_dir / artifacts[name]
        else:
            path = Path(shutil.copy(files[name], tmp_path))
            files[name] = str(path)
        if name == "model":
            doc = json.loads(path.read_text(encoding="utf-8"))
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
            where = ""
        else:
            lines = path.read_text(encoding="utf-8").splitlines()
            lineno = next(n for n, line in enumerate(lines, 1) if edit(line) is not None)
            lines[lineno - 1] = edit(lines[lineno - 1])
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            where = f"line {lineno}: "

        command = {"pairs": "train", "model": "cluster"}.get(name, "validate")
        function, text = cli.COMMANDS[command]
        reached = []  # what the command raises to main's handler

        def recording(run):
            try:
                return function(run)
            except BaseException as exc:
                reached.append(exc)
                raise

        monkeypatch.setitem(cli.COMMANDS, command, (recording, text))
        code = run(command, *data_args(files), "--epochs", "3", "--out-dir", str(out_dir))
        captured = capsys.readouterr()
        assert code == 1
        if command == "validate":
            assert reached == []
            assert f"error: {name}: {where}{message}\n" in captured.out
            assert captured.out.endswith("validation: FAILED\n")
        else:
            assert [type(exc) for exc in reached] == [FormatError]
            assert captured.err.startswith(f"error: {path}: {where}{message}")

    # (input, command that reads it): a 0xff byte at the start of the input's line 2
    NOT_UTF8 = [("corpus", "validate"), ("vectors", "validate"), ("taxonomy", "validate"),
                ("corpus", "pairs"), ("vectors", "train"), ("taxonomy", "pairs"),
                ("config", "pairs"), ("manifest", "pairs"), ("pairs", "train"),
                ("model", "cluster")]

    @pytest.mark.parametrize("name, command", NOT_UTF8, ids=["-".join(c) for c in NOT_UTF8])
    def test_not_utf8_named_without_traceback(self, fixture_files, pipeline_dir, tmp_path,
                                              capsys, name, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        artifacts = {"pairs": "pairs.jsonl", "model": "model.json", "manifest": "manifest.json"}
        for artifact in artifacts.values():
            shutil.copy(pipeline_dir[0] / artifact, out_dir / artifact)
        files = dict(fixture_files)
        if name in artifacts:
            path = out_dir / artifacts[name]
        else:
            path = Path(shutil.copy(files[name], tmp_path))
            files[name] = str(path)
        data = path.read_bytes()
        cut = data.index(b"\n") + 1
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])

        code = run(command, *data_args(files), "--epochs", "3", "--out-dir", str(out_dir))
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.out + captured.err
        if command == "validate":
            assert f"error: {name}: line 2: not valid UTF-8\n" in captured.out
            assert captured.out.endswith("validation: FAILED\n")
        else:
            where = {"config": ": ", "model": ": ", "manifest": " is "}.get(name, ": line 2: ")
            tail = "; move it aside" if name == "manifest" else ""
            assert captured.err == f"error: {path}{where}not valid UTF-8{tail}\n"


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        out, _ = pipeline_dir
        for name in ARTIFACTS:
            assert (out / name).exists()

    def test_pairs_header_and_balance(self, pipeline_dir):
        out, _ = pipeline_dir
        lines = (out / "pairs.jsonl").read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["positives"] == header["negatives"] == 270
        assert len(lines) == 1 + 540

    def test_clusters_file_shape(self, pipeline_dir):
        out, _ = pipeline_dir
        lines = (out / "clusters.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_hash=")
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 6
        assert all(len(r) == 2 for r in rows)

    def test_metrics_shape(self, pipeline_dir):
        out, _ = pipeline_dir
        report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        assert report["runs"] == 10
        assert set(report["methods"]) == {"metric", "avg", "ap"}
        for row in report["methods"].values():
            assert 0.0 <= row["purity_mean"] <= 1.0
            assert row["entropy_mean"] >= 0.0

    def test_manifest_records_all_commands(self, pipeline_dir):
        out, _ = pipeline_dir
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["commands"]) == {"pairs", "train", "cluster", "eval"}
        for entry in manifest["commands"].values():
            assert len(entry["config_hash"]) == 64
            for digest in entry["inputs"].values():
                assert len(digest) == 64

    def test_model_embeds_hash_and_history(self, pipeline_dir):
        out, _ = pipeline_dir
        model = json.loads((out / "model.json").read_text(encoding="utf-8"))
        assert len(model["config_hash"]) == 64
        assert len(model["loss_history"]) == 3

    def test_cluster_baseline_method(self, fixture_files, tmp_path):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path)]
        assert run("cluster", "--method", "avg", *args) == 0
        assert (tmp_path / "clusters.tsv").exists()

    @staticmethod
    def _three_phrases(tmp_path, *argv):
        """Run the CLI on three labeled phrases, two of which have no vector: their zero
        rows coincide, so k=3 leaves a cluster empty in every run."""
        corpus, vecs = tmp_path / "corpus.jsonl", tmp_path / "vectors.txt"
        corpus.write_text("".join(
            json.dumps({"tokens": [w], "mentions": [{"phrase": w, "start": 0, "end": 1,
                                                     "group": g}]}) + "\n"
            for w, g in (("alpha", 0), ("beta", 1), ("gamma", 1))), encoding="utf-8")
        vecs.write_text("alpha 1.0 0.0\n", encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "metric_grouper", *argv, "--k", "3", "--corpus", str(corpus),
             "--vectors", str(vecs), "--out-dir", str(tmp_path)],
            env=_src_env(), capture_output=True, text=True, timeout=120)

    def test_empty_clusters_reported_once(self, tmp_path):
        proc = self._three_phrases(tmp_path, "cluster", "--method", "ap")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.endswith("warning: empty clusters [2]\n")

    @pytest.mark.parametrize("argv, artifact, rows", [
        (["eval", "--methods", "ap,avg"], "metrics.json", ("methods", "ap", "avg")),
        (["ablate", "--combos", "ap:0:raw,avg:0:raw"], "ablation.json",
         ("combos", "ap:0:raw", "avg:0:raw")),
    ], ids=["eval", "ablate"])
    def test_scores_count_empty_cluster_runs(self, tmp_path, argv, artifact, rows):
        proc = self._three_phrases(tmp_path, *argv, "--runs", "2")
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads((tmp_path / artifact).read_text(encoding="utf-8"))
        key, *names = rows
        assert {name: row.get("empty_cluster_runs") for name, row in report[key].items()} == {
            name: 2 for name in names}
        for name in names:
            assert f"warning: {name}: 2 of 2 run(s) left a cluster empty\n" in proc.stdout

    def test_dump_flags(self, pipeline_dir, tmp_path):
        out, args = pipeline_dir
        composed = tmp_path / "composed.tsv"
        centroids = tmp_path / "centroids.txt"
        assert run("cluster", *args, "--dump-composed", str(composed),
                   "--dump-centroids", str(centroids)) == 0
        rows = composed.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 6
        phrase, vector = rows[0].split("\t")
        assert len(vector.split()) == 16
        assert len(centroids.read_text(encoding="utf-8").splitlines()) == 2

    def test_dump_composed_composes_each_phrase_once(self, pipeline_dir, tmp_path,
                                                     monkeypatch, fixture_files):
        out, args = pipeline_dir
        clusters_before = (out / "clusters.tsv").read_text(encoding="utf-8")
        calls = count_calls(monkeypatch, clustering_mod, "compose_test_phrase")
        composed_path = tmp_path / "composed.tsv"
        assert run("cluster", *args, "--dump-composed", str(composed_path)) == 0
        composed_phrases = [a[0] for a in calls["compose_test_phrase"]]
        assert len(composed_phrases) == len(set(composed_phrases)) == 6
        monkeypatch.undo()

        assert (out / "clusters.tsv").read_text(encoding="utf-8") == clusters_before
        corpus = load_corpus(fixture_files["corpus"])
        table = load_word_vectors(fixture_files["vectors"])
        net, _ = load_model(str(out / "model.json"))
        phrases, composed, points = clustering_mod.phrase_points(
            corpus, table, net=net, mode=net.composition_mode)
        expected = clustering_mod.kmeans(points, 2, seed=42, n_init=10, max_iter=100)
        rows = [line.split("\t") for line in clusters_before.splitlines()[1:]]
        assert rows == [[p, str(c)] for p, c in zip(phrases, expected.labels.tolist())]
        assert composed_path.read_text(encoding="utf-8") == "".join(
            f"{p}\t" + " ".join(repr(float(v)) for v in row) + "\n"
            for p, row in zip(phrases, composed))

    def test_dump_manifest_keys(self, pipeline_dir, tmp_path):
        # A dump named like an artifact must not take that artifact's checksum.
        out, args = pipeline_dir
        composed, centroids = tmp_path / "clusters.tsv", tmp_path / "model.json"
        assert run("cluster", *args, "--dump-composed", str(composed),
                   "--dump-centroids", str(centroids)) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        outputs = manifest["commands"]["cluster"]["outputs"]
        assert outputs == {"clusters.tsv": cli._sha256(out / "clusters.tsv"),
                           "dump-composed": cli._sha256(composed),
                           "dump-centroids": cli._sha256(centroids)}
        assert outputs["clusters.tsv"] != outputs["dump-composed"]

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--dump-composed", "{out}/clusters.tsv"],
         "--dump-composed {out}/clusters.tsv would overwrite --out-dir's clusters.tsv"),
        (["cluster", "--dump-centroids", "{out}/missing/../manifest.json"],
         "--dump-centroids {out}/missing/../manifest.json "
         "would overwrite --out-dir's manifest.json"),
        (["cluster", "--dump-composed", "pairs.jsonl"],  # run from --out-dir
         "--dump-composed pairs.jsonl would overwrite --out-dir's pairs.jsonl"),
        (["cluster", "--dump-composed", "{tmp}/both.txt", "--dump-centroids", "{tmp}/both.txt"],
         "--dump-centroids {tmp}/both.txt would overwrite --dump-composed"),
        (["cluster", "--dump-centroids", "{inputs}/vectors.txt"],
         "--dump-centroids {inputs}/vectors.txt would overwrite --vectors"),
        (["cluster", "--dump-composed", "{inputs}/corpus.jsonl"],
         "--dump-composed {inputs}/corpus.jsonl would overwrite --corpus"),
        (["cluster", "--dump-composed", "{inputs}/taxonomy.jsonl"],
         "--dump-composed {inputs}/taxonomy.jsonl would overwrite --taxonomy"),
        (["cluster", "--dump-centroids", "{inputs}/config.ini"],
         "--dump-centroids {inputs}/config.ini would overwrite --config"),
        (["split", "--corpus", "{inputs}/train.jsonl", "--out-dir", "{inputs}"],
         "--out-dir's train.jsonl would overwrite --corpus"),
    ], ids=["artifact", "dotdot", "relative", "same_file", "vectors", "corpus", "taxonomy",
            "config", "split_corpus"])
    def test_dump_cannot_overwrite(self, pipeline_dir, fixture_files, tmp_path, tmp_path_factory,
                                   monkeypatch, capsys, argv, message):
        out, args = pipeline_dir
        inputs = tmp_path_factory.mktemp("inputs")  # copies, so a failure spoils no other test
        copies = {name: shutil.copy(path, inputs) for name, path in fixture_files.items()}
        shutil.copy(fixture_files["corpus"], inputs / "train.jsonl")
        args = data_args(copies) + args[args.index("--out-dir"):]
        def snapshot():
            return {p: p.read_bytes() for d in (out, inputs) for p in d.iterdir()}

        before = snapshot()
        monkeypatch.chdir(out)
        fill = dict(out=out, tmp=tmp_path, inputs=inputs)
        assert run(argv[0], *args, *[a.format(**fill) for a in argv[1:]]) == 1
        assert f"error: {message.format(**fill)}\n" in capsys.readouterr().err
        assert snapshot() == before
        assert os.listdir(tmp_path) == []

    def test_dump_into_missing_directory_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        out, args = pipeline_dir
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        dump = tmp_path / "missing" / "x.tsv"
        assert run("cluster", *args, "--method", "avg", "--dump-composed", str(dump)) == 1
        err = capsys.readouterr().err
        assert err == f"error: --dump-composed {dump}: no directory {dump.parent}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert os.listdir(tmp_path) == []

    def test_dump_onto_a_directory_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        out, args = pipeline_dir
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        dump = tmp_path / "adir"
        dump.mkdir()
        assert run("cluster", *args, "--method", "avg", "--dump-composed", str(dump)) == 1
        assert capsys.readouterr().err == f"error: --dump-composed {dump} is a directory\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert os.listdir(tmp_path) == ["adir"] and os.listdir(dump) == []

    PARSED = {"load_corpus": "corpus", "load_word_vectors": "vectors",
              "load_taxonomy": "taxonomy", "load_pairs": "pairs.jsonl", "load_model": "model.json"}

    def test_manifest_inputs_are_the_parsed_files(self, fixture_files, tmp_path, monkeypatch):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1"]
        for argv in (["split"], ["pairs"], ["train"], ["cluster"], ["cluster", "--method", "avg"],
                     ["eval"], ["eval", "--methods", "avg"], ["ablate"]):
            calls = count_calls(monkeypatch, cli, *self.PARSED)
            assert run(*argv, *args) == 0
            monkeypatch.undo()
            manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
            parsed = {self.PARSED[name] for name, seen in calls.items() if seen}
            assert set(manifest["commands"][argv[0]]["inputs"]) == parsed, argv


class TestGuards:
    def test_cluster_before_train(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path)]
        code = run("cluster", *args)
        err = capsys.readouterr().err
        assert code == 1
        assert "train command first" in err

    def test_train_before_pairs(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path)]
        code = run("train", *args)
        err = capsys.readouterr().err
        assert code == 1
        assert "pairs command first" in err

    def test_config_hash_mismatch_rejected(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "2"]
        assert run("pairs", *args) == 0
        code = run("train", *args, "--eta", "0.4")
        err = capsys.readouterr().err
        assert code == 1
        assert "config hash" in err

    CORRUPT = [("{not json", "manifest.json is not valid JSON", "not_json"),
               ("[]", 'manifest.json is not a {"commands": {...}} object', "list"),
               ('{"commands": []}', 'manifest.json is not a {"commands": {...}} object',
                "commands_list")]

    @pytest.mark.parametrize("command, text, message", [
        pytest.param(command, text, message, id=name if command == "pairs" else f"{command}-{name}")
        for text, message, name in CORRUPT
        for command in ["split", "pairs", "train", "cluster", "eval", "ablate", "run-all"]])
    def test_corrupt_manifest_rejected(self, fixture_files, tmp_path, capsys, monkeypatch,
                                       command, text, message):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        calls = count_calls(monkeypatch, cli, "load_corpus", "load_word_vectors", "load_taxonomy")
        code = run(command, *data_args(fixture_files), "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert err.rstrip().endswith("move it aside")
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == text
        assert os.listdir(tmp_path) == ["manifest.json"]
        assert {name: len(seen) for name, seen in calls.items()} == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("command, message", [
        ("train", "run the pairs command first"),
        ("cluster", "run the train command first"),
        ("eval", "run the train command first"),
    ])
    def test_missing_artifact_found_before_parsing_inputs(self, fixture_files, tmp_path,
                                                          capsys, monkeypatch, command, message):
        calls = count_calls(monkeypatch, cli, "load_corpus", "load_word_vectors")
        code = run(command, *data_args(fixture_files), "--out-dir", str(tmp_path))
        assert code == 1
        assert message in capsys.readouterr().err
        assert calls == {"load_corpus": [], "load_word_vectors": []}

    def test_pairs_without_hash_rejected(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1"]
        assert run("pairs", *args) == 0
        path = tmp_path / "pairs.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        del header["config_hash"]
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n", encoding="utf-8")
        code = run("train", *args)
        err = capsys.readouterr().err
        assert code == 1
        assert "pairs.jsonl carries no config hash" in err
        assert not (tmp_path / "model.json").exists()

    def test_pairs_file_without_pairs_rejected(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1"]
        assert run("pairs", *args) == 0
        path = tmp_path / "pairs.jsonl"
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(header)["kind"] == "header"
        path.write_text(header + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run("train", *args)
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: no pair records\n"
        assert not (tmp_path / "model.json").exists()

    def test_model_without_hash_rejected(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1"]
        assert run("pairs", *args) == 0
        assert run("train", *args) == 0
        path = tmp_path / "model.json"
        model = json.loads(path.read_text(encoding="utf-8"))
        del model["config_hash"]
        path.write_text(json.dumps(model), encoding="utf-8")
        code = run("cluster", *args)
        err = capsys.readouterr().err
        assert code == 1
        assert "model.json carries no config hash" in err
        assert not (tmp_path / "clusters.tsv").exists()

    def test_unknown_config_key(self, fixture_files, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        # dropout_rate, finetune_attention and metric were keys until they were removed
        for section, key in (("training", "momentum"), ("network", "dropout_rate"),
                             ("training", "finetune_attention"), ("clustering", "metric")):
            cfg.write_text(f"[{section}]\n{key} = 0.5\n", encoding="utf-8")
            code = run("pairs", "--corpus", fixture_files["corpus"],
                       "--taxonomy", fixture_files["taxonomy"],
                       "--config", str(cfg), "--out-dir", str(tmp_path))
            err = capsys.readouterr().err
            assert code == 1
            assert f"unknown key '{key}' in [{section}]" in err

    def test_missing_required_flag(self, fixture_files, capsys):
        code = run("pairs", "--corpus", fixture_files["corpus"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--taxonomy" in err

    def test_train_config_sets_every_field(self, monkeypatch):
        # a TrainConfig field no setting reaches is a knob only the library can turn
        seen = {}
        monkeypatch.setattr(config, "TrainConfig", lambda **kw: seen.update(kw))
        config.train_config_from(config.resolve())
        assert sorted(seen) == sorted(f.name for f in dataclasses.fields(TrainConfig))

    def test_train_config_defaults_are_the_settings_defaults(self):
        assert TrainConfig() == config.train_config_from(config.resolve())

    @pytest.mark.parametrize("field", sorted(TRAINING_RANGES))
    def test_training_ranges_agree(self, field):
        # the library's TrainConfig and a [training] setting accept the same values
        key = "lambda" if field == "reg_lambda" else field
        values = ([-1, 0, 1, 2, 1.5, True] if field in ("epochs", "seed")
                  else [-1, 0, 0.5, 1, 1.5, math.inf, math.nan])
        outcomes = set()
        for value in values:
            try:
                TrainConfig(**{field: value})
                library = True
            except ValueError:
                library = False
            try:
                config.resolve(overrides={key: str(value)})
                setting = True
            except ConfigError:
                setting = False
            assert library == setting, value
            outcomes.add(library)
        assert outcomes == {True, False}

    def test_readme_defaults_match_schema(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "readme.ini"
        ini.write_text(block, encoding="utf-8")
        resolved = config.resolve(str(ini))  # a key the schema lacks raises ConfigError
        listed = configparser.ConfigParser(interpolation=None)
        listed.read(ini, encoding="utf-8")
        assert {name: set(listed[name]) for name in listed.sections()} == {
            name: set(keys) for name, keys in config.SCHEMA.items()}
        assert resolved["_raw"] == config.resolve()["_raw"]

    OUT_OF_RANGE = [
        (("eval", "--methods", "foo"), "[evaluation] methods"),
        (("eval", "--k", "0"), "[clustering] k"),
        (("cluster", "--k", "0"), "[clustering] k"),
        (("eval", "--runs", "0"), "[evaluation] runs"),
        (("ablate", "--runs", "0"), "[evaluation] runs"),
        (("eval", "--n-init", "0"), "[clustering] n_init"),
        (("cluster", "--max-iter", "0"), "[clustering] max_iter"),
        (("train", "--epochs", "0"), "[training] epochs"),
        (("train", "--layers", "0"), "[network] layers"),
        (("train", "--output-dim", "0"), "[network] output_dim"),
        (("pairs", "--max-pos", "0"), "[pairs] max_pos"),
        (("train", "--margin-t", "1"), "[training] margin_t"),
        (("train", "--beta", "0"), "[training] beta"),
        (("train", "--lambda", "-1"), "[training] lambda"),
        (("train", "--learning-rate", "-1"), "[training] learning_rate"),
        (("run-all", "--margin-t", "inf"), "[training] margin_t"),
        (("train", "--margin-t", "nan"), "[training] margin_t"),
        (("train", "--beta", "inf"), "[training] beta"),
        (("train", "--lambda", "inf"), "[training] lambda"),
        (("train", "--lambda", "nan"), "[training] lambda"),
        (("train", "--learning-rate", "inf"), "[training] learning_rate"),
        (("train", "--learning-rate", "nan"), "[training] learning_rate"),
        (("pairs", "--eta", "-1"), "[pairs] eta"),
        (("pairs", "--mode", "bogus"), "[composition] mode"),
        (("train", "--activation", "relu"), "[network] activation"),
        (("pairs", "--seed", "-1"), "[pairs] seed"),
        (("run-all", "clustering.seed=-3"), "[clustering] seed"),
        (("train", "--hidden-dims", "0,3"), "[network] hidden_dims"),
        (("train", "--hidden-dims", "3"), "[network] hidden_dims"),
        (("run-all", "--hidden-dims", "3"), "[network] hidden_dims"),
        (("ablate", "--hidden-dims", "3", "--combos", "attention:3:trained"),
         "[network] hidden_dims"),
        (("split", "split.train_ratio=nan"), "[split] train_ratio"),
        (("split", "split.train_ratio=-0.5"), "[split] train_ratio"),
        (("split", "split.test_ratio=1.2"), "[split] test_ratio"),
        (("split", "split.dev_ratio=inf"), "[split] dev_ratio"),
    ]

    @pytest.mark.parametrize("argv, setting", OUT_OF_RANGE,
                             ids=["_".join(argv).replace("--", "") for argv, _ in OUT_OF_RANGE])
    def test_out_of_range_setting_rejected(self, fixture_files, tmp_path, tmp_path_factory,
                                           capsys, argv, setting):
        args = data_args(fixture_files)
        if "=" in argv[-1]:  # "section.key=value": a setting with no flag, given by --config
            section, line = argv[-1].split(".", 1)
            ini = tmp_path_factory.mktemp("config") / "bad.ini"
            ini.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
            argv, args = argv[:-1], args[:-1] + [str(ini)]
        code = run(*argv, *args, "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {setting}: " in err
        assert os.listdir(tmp_path) == []

    NO_OUT_DIR = [
        *(pytest.param(command, ["--k", "0"], "[clustering] k: ", id=command)
          for command in ["split", "pairs", "train", "cluster", "eval", "ablate"]),
        pytest.param("train", ["--hidden-dims", "3"], "[network] hidden_dims: ",
                     id="train-hidden_dims"),
        pytest.param("train", [], "no pairs.jsonl in ", id="train-no_pairs"),
        pytest.param("cluster", [], "no model.json in ", id="cluster-no_model"),
        pytest.param("eval", [], "no model.json in ", id="eval-no_model"),
    ]

    @pytest.mark.parametrize("command, flags, message", NO_OUT_DIR)
    def test_rejected_setting_creates_no_out_dir(self, fixture_files, tmp_path, capsys, command,
                                                 flags, message):
        out = tmp_path / "new"
        code = run(command, *data_args(fixture_files), *flags, "--out-dir", str(out))
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_non_finite_model_rejected(self, fixture_files, tmp_path, capsys, command):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1"]
        assert run("pairs", *args) == 0
        assert run("train", *args) == 0
        path = tmp_path / "model.json"
        model = json.loads(path.read_text(encoding="utf-8"))
        model["layers"][0]["w"][0][0] = float("nan")
        path.write_text(json.dumps(model), encoding="utf-8")
        capsys.readouterr()
        code = run(command, *args)
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {path}: checkpoint holds a non-finite parameter" in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "model.json", "pairs.jsonl"]

    @pytest.mark.parametrize("mode", ["attention", "avg"])
    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_model_must_fit_vectors(self, fixture_files, tmp_path, capsys, command, mode):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "1",
                                           "--mode", mode]
        assert run("pairs", *args) == 0
        assert run("train", *args) == 0
        cut = tmp_path / "cut.txt"
        with open(fixture_files["vectors"], encoding="utf-8") as fh:
            cut.write_text("".join(" ".join(line.split()[:5]) + "\n" for line in fh),
                           encoding="utf-8")
        capsys.readouterr()
        code = run(command, *args, "--vectors", str(cut))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: {tmp_path / 'model.json'} composes 8-dimensional word "
                                f"vectors; --vectors {cut} has dimension 4\n")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["cut.txt", "manifest.json", "model.json",
                                                "pairs.jsonl"]

    @pytest.mark.parametrize("command,k", [
        pytest.param("ablate", None, id="default_k"),
        pytest.param("ablate", "2", id="k_2"),
        pytest.param("run-all", None, id="run_all-default_k"),
        pytest.param("run-all", "2", id="run_all-k_2"),
    ])
    def test_ablate_rejects_unlabeled_corpus_before_training(self, fixture_files, tmp_path,
                                                             capsys, monkeypatch, command, k):
        lines = Path(fixture_files["corpus"]).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            for mention in rec["mentions"]:
                del mention["group"]
        corpus = tmp_path / "unlabeled.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        monkeypatch.setattr(ablation_mod, "train",
                            lambda *a, **kw: pytest.fail("ablate trained before checking labels"))
        monkeypatch.setattr(cli, "generate_pairs",
                            lambda *a, **kw: pytest.fail("pairs drawn before checking labels"))
        out = tmp_path / "out"
        argv = data_args(dict(fixture_files, corpus=str(corpus))) + ["--out-dir", str(out)]
        code = run(command, *argv, *(["--k", k] if k else []))
        assert code == 1
        assert "error: corpus carries no gold groups" in capsys.readouterr().err
        assert not out.exists()

    def test_cluster_unlabeled_corpus_asks_for_k(self, fixture_files, tmp_path, capsys):
        records = [json.loads(line) for line in
                   Path(fixture_files["corpus"]).read_text(encoding="utf-8").splitlines()]
        for rec in records:
            for mention in rec["mentions"]:
                del mention["group"]
        corpus = tmp_path / "unlabeled.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        argv = data_args(dict(fixture_files, corpus=str(corpus))) + [
            "--out-dir", str(tmp_path / "out"), "--method", "avg"]
        assert run("cluster", *argv) == 1
        assert capsys.readouterr().err == (
            "error: corpus carries no gold groups to count clusters by; pass --k\n")
        assert not (tmp_path / "out").exists()
        assert run("cluster", *argv, "--k", "2") == 0

    @pytest.mark.parametrize("command", ["ablate", "run-all"])
    def test_k_above_distinct_phrases_rejected_before_training(self, fixture_files, tmp_path,
                                                               capsys, monkeypatch, command):
        points = len(load_corpus(fixture_files["corpus"]).phrase_index)
        monkeypatch.setattr(ablation_mod, "train",
                            lambda *a, **kw: pytest.fail("ablate trained before checking k"))
        monkeypatch.setattr(cli, "train",
                            lambda *a, **kw: pytest.fail("run-all trained before checking k"))
        monkeypatch.setattr(cli, "generate_pairs",
                            lambda *a, **kw: pytest.fail("pairs drawn before checking k"))
        out = tmp_path / "out"
        code = run(command, *data_args(fixture_files), "--k", str(points + 1),
                   "--out-dir", str(out))
        assert code == 1
        assert (f"error: {points} points cannot fill {points + 1} clusters\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--combos", "bogus"], "[ablation] combos: combo 'bogus' is not mode:layers:trained|raw"),
        (["--combos", "ap:0:raw,ap:2:raw"],
         "[ablation] combos: combo 'ap:2:raw': mlp_layers must be 0, 1 or 3"),
        (["--combos", "ap:0:raw,ap:0:raw"], "duplicate combos"),
        (["--hidden-dims", "3", "--combos", "attention:3:trained"],
         "[network] hidden_dims: 3 layers need 2 hidden widths, got 1"),
        (["--combos", "bogus:0:raw"],
         "[ablation] combos: combo 'bogus:0:raw': unknown composition mode 'bogus'"),
    ], ids=["bad_combo", "bad_depth", "duplicate_combo", "hidden_dims", "unknown_mode"])
    def test_ablate_checks_settings_before_reading_input(self, fixture_files, tmp_path, capsys,
                                                         monkeypatch, flags, message):
        for name in ("load_corpus", "load_word_vectors", "load_taxonomy", "generate_pairs"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **kw: pytest.fail(
                f"ablate called {_name} before checking its settings"))
        out = tmp_path / "out"
        argv = data_args(dict(fixture_files, vectors=str(tmp_path / "missing.txt")))
        code = run("ablate", *argv, *flags, "--out-dir", str(out))
        assert code == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_flags_come_from_schema(self, command, capsys, monkeypatch):
        # every key with help is a flag of every command, showing that help;
        # a key without help has no flag of its own (--seed sets every seed)
        monkeypatch.setenv("COLUMNS", "1000")  # no help line is wrapped
        with pytest.raises(SystemExit):
            run(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        for section, keys in config.SCHEMA.items():
            for key, (_parse, _default, help_text) in keys.items():
                flag = "--" + key.replace("_", "-")
                if help_text is None:
                    assert key == "seed" or f"{flag} " not in text, (section, key)
                else:
                    assert f"{flag} {key.upper()} {' '.join(help_text.split())}" in text

    NO_POSITIVES = {  # distant supervision needs one phrase in two samples for a positive pair
        "one_mention": [(("the", "picture", "is", "sharp"), "picture", 1)],
        "each_phrase_once": [(("the", "picture", "is", "sharp"), "picture", 1),
                             (("the", "sound", "is", "loud"), "sound", 1)],
    }

    @pytest.mark.parametrize("command", ["pairs", "run-all", "ablate"])
    @pytest.mark.parametrize("corpus", sorted(NO_POSITIVES))
    def test_no_positive_pairs_rejected(self, fixture_files, tmp_path, capsys, command, corpus):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            json.dumps({"tokens": list(tokens), "mentions": [
                {"phrase": phrase, "start": start, "end": start + 1, "group": group}]}) + "\n"
            for group, (tokens, phrase, start) in enumerate(self.NO_POSITIVES[corpus])),
            encoding="utf-8")
        out = tmp_path / "out"
        code = run(command, *data_args(dict(fixture_files, corpus=str(path))),
                   "--out-dir", str(out))
        assert code == 1
        assert "error: no positive pairs" in capsys.readouterr().err
        assert not out.exists()


class TestSplit:
    def test_ratios_and_determinism(self, fixture_files, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("split", "--corpus", fixture_files["corpus"],
                       "--out-dir", str(out)) == 0
        sizes = {}
        for name in ("train.jsonl", "test.jsonl", "dev.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
            sizes[name] = len((a / name).read_text(encoding="utf-8").splitlines())
        assert sizes == {"train.jsonl": 18, "test.jsonl": 30, "dev.jsonl": 12}

    def test_partition_is_exact(self, fixture_files, tmp_path):
        assert run("split", "--corpus", fixture_files["corpus"],
                   "--out-dir", str(tmp_path)) == 0
        total = 0
        for name in ("train.jsonl", "test.jsonl", "dev.jsonl"):
            total += len((tmp_path / name).read_text(encoding="utf-8").splitlines())
        assert total == 60


class TestAblate:
    def test_reports_unlabeled_phrases_like_eval(self, fixture_files, tmp_path, capsys):
        lines = Path(fixture_files["corpus"]).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        for rec in records:
            for mention in rec["mentions"]:
                if mention["phrase"] == "picture":
                    del mention["group"]
        corpus = tmp_path / "partly_labeled.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        args = data_args(dict(fixture_files, corpus=str(corpus))) + [
            "--out-dir", str(out), "--methods", "avg", "--combos", "ap:0:raw,avg:0:raw"]
        warning = "warning: 1 phrase(s) lacked gold labels\n"
        assert run("eval", *args) == 0
        assert warning in capsys.readouterr().out
        assert run("ablate", *args) == 0
        assert warning in capsys.readouterr().out
        report = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        assert report["skipped_unlabeled"] == 1

    def test_raw_combos_need_no_taxonomy(self, fixture_files, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, cli, "load_taxonomy")
        args = data_args(fixture_files)
        del args[args.index("--taxonomy"):args.index("--taxonomy") + 2]
        assert run("ablate", *args, "--out-dir", str(tmp_path),
                   "--combos", "ap:0:raw,avg:0:raw") == 0
        assert calls == {"load_taxonomy": []}
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["commands"]["ablate"]["inputs"]) == {"corpus", "vectors"}

    def test_trained_combo_needs_taxonomy_before_any_parse(self, fixture_files, tmp_path,
                                                           monkeypatch, capsys):
        calls = count_calls(monkeypatch, cli, "load_corpus", "load_word_vectors")
        args = data_args(fixture_files)
        del args[args.index("--taxonomy"):args.index("--taxonomy") + 2]
        assert run("ablate", *args, "--out-dir", str(tmp_path / "out"),
                   "--combos", "ap:0:raw,avg:1:trained") == 1
        assert capsys.readouterr().err == "error: --taxonomy is required for this command\n"
        assert calls == {"load_corpus": [], "load_word_vectors": []}
        assert not (tmp_path / "out").exists()


class TestRunAll:
    def test_smoke_and_reports(self, fixture_files, tmp_path, capsys):
        args = data_args(fixture_files) + ["--out-dir", str(tmp_path), "--epochs", "3"]
        code = run("run-all", *args)
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
        assert "purity_mean" in report["methods"]["metric"]
        assert "entropy_mean" in report["methods"]["metric"]
        assert "validation: ok" in out

    def test_matches_separate_steps_and_loads_inputs_once(self, fixture_files, tmp_path,
                                                          monkeypatch):
        steps_dir, all_dir = tmp_path / "steps", tmp_path / "all"
        base = data_args(fixture_files) + ["--epochs", "3"]
        kept = {}
        for command in ("validate", "pairs", "train", "cluster", "eval"):
            def loading(path, errors=None, keep=None, command=command):
                kept[command] = keep
                return load_word_vectors(path, errors=errors, keep=keep)

            monkeypatch.setattr(cli, "load_word_vectors", loading)
            assert run(command, *base, "--out-dir", str(steps_dir)) == 0
        monkeypatch.undo()
        # a step keeps the vector rows of the corpus it reads; standalone train reads none
        corpus_tokens = load_corpus(fixture_files["corpus"]).distinct_tokens()
        pairs, _meta = load_pairs(str(steps_dir / "pairs.jsonl"))
        pair_tokens = {token for pair in pairs for sample in (pair.left, pair.right)
                       for token in sample.context_tokens}
        assert kept == {"validate": corpus_tokens, "train": pair_tokens,
                        "cluster": corpus_tokens, "eval": corpus_tokens}

        # pairs and model pass from step to step in memory; each file is hashed once
        calls = count_calls(monkeypatch, cli, "load_word_vectors", "load_corpus", "load_taxonomy",
                            "load_pairs", "load_model", "_sha256")
        assert run("run-all", *base, "--out-dir", str(all_dir)) == 0
        assert {name: len(seen) for name, seen in calls.items()} == {
            "load_word_vectors": 1, "load_corpus": 1, "load_taxonomy": 1,
            "load_pairs": 0, "load_model": 0, "_sha256": 7}
        hashed = [os.path.realpath(a[0]) for a in calls["_sha256"]]
        inputs = [fixture_files[name] for name in ("corpus", "vectors", "taxonomy")]
        outputs = [all_dir / name for name in ARTIFACTS if name != "manifest.json"]
        assert sorted(hashed) == sorted(os.path.realpath(p) for p in inputs + outputs)
        for name in ARTIFACTS:
            assert (all_dir / name).read_bytes() == (steps_dir / name).read_bytes(), name

    def test_bad_vectors_stop_at_validate(self, fixture_files, tmp_path, capsys):
        lines = Path(fixture_files["vectors"]).read_text(encoding="utf-8").splitlines()
        token, *comps = lines[3].split()
        lines[3] = " ".join([token, "oops"] + comps[1:])
        vecs = tmp_path / "vectors.txt"
        vecs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        args = data_args(dict(fixture_files, vectors=str(vecs)))
        code = run("run-all", *args, "--out-dir", str(out_dir), "--epochs", "3")
        out = capsys.readouterr().out
        assert code == 1
        assert "line 4: non-numeric vector component" in out
        assert "validation: FAILED" in out
        assert not (out_dir / "pairs.jsonl").exists()
        assert not (out_dir / "model.json").exists()


def test_output_does_not_depend_on_hash_seed(fixture_files, tmp_path):
    # a concept with three unknown parents and a word with three unknown concepts: the
    # one named must not depend on the order in which a set yields them
    unknown = ["ghost", "phantom", "zz"]
    taxonomies = {
        "parent": [{"concept": "r", "count": 1}, {"concept": "c", "parents": unknown}],
        "concept": [{"concept": "r", "count": 1}, {"word": "x", "concepts": unknown}],
    }
    commands = [("run-all", *data_args(fixture_files), "--epochs", "3", "--out-dir", "out")]
    for name, records in taxonomies.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        commands.append(("validate", *data_args(dict(fixture_files, taxonomy=str(path)))))
    seen = {}
    for hash_seed in ("1", "4"):  # two seeds under which these sets iterate differently
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        procs = [subprocess.run([sys.executable, "-m", "metric_grouper", *argv], cwd=cwd,
                                env=_src_env(PYTHONHASHSEED=hash_seed), capture_output=True,
                                text=True, timeout=300)
                 for argv in commands]
        seen[hash_seed] = ([(p.returncode, p.stdout, p.stderr) for p in procs],
                           {f.name: f.read_bytes() for f in sorted((cwd / "out").iterdir())})
    assert seen["1"] == seen["4"]
    outputs, artifacts = seen["1"]
    assert sorted(artifacts) == sorted(ARTIFACTS)
    assert [code for code, _out, _err in outputs] == [0, 1, 1]
    assert "error: taxonomy: concept 'c' names unknown parent 'ghost'\n" in outputs[1][1]
    assert "error: taxonomy: word 'x' maps to unknown concept 'ghost'\n" in outputs[2][1]


class TestAtomicWrite:
    def test_text_and_permissions(self, tmp_path):
        target = tmp_path / "out.txt"
        _atomic_write(str(target), "hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"
        umask = os.umask(0)
        os.umask(umask)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failing_writer_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.json"

        def failing(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            _atomic_write(str(target), failing)
        assert os.listdir(tmp_path) == []

    def test_concurrent_writers_use_distinct_temp_files(self, tmp_path):
        # An inner write to the same target runs while the outer one is open.
        target = tmp_path / "out.json"
        temps = []

        def inner(tmp):
            temps.append(tmp)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("inner")

        def outer(tmp):
            temps.append(tmp)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("outer")
            _atomic_write(str(target), inner)
            with open(tmp, encoding="utf-8") as fh:
                assert fh.read() == "outer"

        _atomic_write(str(target), outer)
        assert temps[0] != temps[1]
        assert all(os.path.dirname(t) == str(tmp_path) for t in temps)
        assert target.read_text(encoding="utf-8") == "outer"
        assert os.listdir(tmp_path) == ["out.json"]


class TestTraceContract:
    """The benchmark tracer still finds every layer it wraps (bench/tracing.py)."""

    # Counts of a traced fixture run-all. A layer renamed or moved in src/
    # is left unwrapped and reads 0 in the benchmark, which fails here.
    EXPECTED = {
        "network.steps": 16200,
        "composition.compose_test_phrase.calls": 24,
        "lexicon.incompatible.calls": 1,
        "clustering.kmeans.calls": 31,
        "clustering.restarts": 310,
        "clustering.lloyd_iters": 620,
        "evaluation.contingency.calls": 30,
    }

    # Counts of a traced fixture ablate at the fixture-ablate workload's flags.
    EXPECTED_ABLATE = {
        "composition.compose_test_phrase.calls": 30,
        "network.steps": 16200,
        "clustering.kmeans.calls": 50,
        "clustering.restarts": 500,
        "clustering.lloyd_iters": 1007,
        "evaluation.contingency.calls": 50,
    }

    # Layers of attention-mode training that both traced runs must reach. A call
    # that bypasses the name bench/tracing.py wraps leaves no name unwrapped but
    # reads 0 here.
    REACHED = ("network.compose_backward.s", "network.pair_gradients.s",
               "network.objective.s", "network.params_finite.s")

    @classmethod
    def _layer_metrics(cls, tmp_path, *cli_args):
        """bench/tracing.py's per-layer metrics of one traced CLI run, which must wrap
        every layer it targets and reach each of REACHED."""
        repo = Path(__file__).resolve().parent.parent
        tracer = repo / "bench" / "tracing.py"
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(tracer), "--spans", str(spans), "--t0", "0", "--",
             *cli_args, "--out-dir", str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(spans.read_text(encoding="utf-8"))
        assert doc["unwrapped"] == []
        spec = importlib.util.spec_from_file_location("bench_tracing", tracer)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        metrics = tracing.layer_metrics(doc)
        assert {name: metrics[name] > 0 for name in cls.REACHED} == dict.fromkeys(cls.REACHED, True)
        return metrics

    def test_traced_run_all(self, fixture_files, tmp_path):
        metrics = self._layer_metrics(tmp_path, "run-all", *data_args(fixture_files))
        assert {name: metrics[name] for name in self.EXPECTED} == self.EXPECTED

    def test_traced_ablate(self, fixture_files, tmp_path):
        combos = "ap:0:raw,avg:0:raw,attention:1:trained,attention:3:trained,avg:3:trained"
        metrics = self._layer_metrics(tmp_path, "ablate", *data_args(fixture_files),
                                      "--epochs", "10", "--combos", combos)
        assert {name: metrics[name] for name in self.EXPECTED_ABLATE} == self.EXPECTED_ABLATE


def test_module_entry_point(fixture_files):
    # the benchmark times `python -m metric_grouper`, so the module must run as a program
    env = _src_env()
    for argv, code, last in ((["--version"], 0, "0.1.0"),
                             (["validate", *data_args(fixture_files)], 0, "validation: ok")):
        proc = subprocess.run([sys.executable, "-m", "metric_grouper", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == last
