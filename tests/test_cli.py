import json
import os
from pathlib import Path

import pytest

from metric_grouper import cli
from metric_grouper import clustering as clustering_mod
from metric_grouper.cli import _atomic_write, main
from metric_grouper.clustering import cluster_corpus
from metric_grouper.corpus import load_corpus, load_word_vectors
from metric_grouper.network import load_model

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

    def test_missing_vectors_warn_but_pass(self, fixture_files, tmp_path, capsys):
        vecs = tmp_path / "small.txt"
        vecs.write_text("picture 1.0 0.0\nsound 0.0 1.0\n", encoding="utf-8")
        code = run("validate", "--corpus", fixture_files["corpus"], "--vectors", str(vecs))
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage: 2/27" in out
        assert "warning" in out


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
        calls = []
        compose = clustering_mod.compose_test_phrase

        def counting(phrase, *rest, **kwargs):
            calls.append(phrase)
            return compose(phrase, *rest, **kwargs)

        monkeypatch.setattr(clustering_mod, "compose_test_phrase", counting)
        composed_path = tmp_path / "composed.tsv"
        assert run("cluster", *args, "--dump-composed", str(composed_path)) == 0
        assert len(calls) == len(set(calls)) == 6
        monkeypatch.undo()

        assert (out / "clusters.tsv").read_text(encoding="utf-8") == clusters_before
        corpus = load_corpus(fixture_files["corpus"])
        table = load_word_vectors(fixture_files["vectors"])
        net, _ = load_model(str(out / "model.json"))
        expected = cluster_corpus(corpus, table, 2, net=net, mode=net.composition_mode,
                                  metric="euclidean", seed=42, n_init=10, max_iter=100)
        rows = [line.split("\t") for line in clusters_before.splitlines()[1:]]
        assert {p: int(c) for p, c in rows} == expected.assignments
        composed, _ = clustering_mod.phrase_points(corpus, table, net=net,
                                                   mode=net.composition_mode)
        assert composed_path.read_text(encoding="utf-8") == "".join(
            f"{p}\t" + " ".join(repr(float(v)) for v in composed[p]) + "\n"
            for p in sorted(composed))


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

    def test_corrupt_manifest_rejected(self, fixture_files, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
        code = run("pairs", *data_args(fixture_files), "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "manifest.json is not valid JSON" in err
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == "{not json"

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
        cfg.write_text("[training]\nmomentum = 0.9\n", encoding="utf-8")
        code = run("pairs", "--corpus", fixture_files["corpus"],
                   "--taxonomy", fixture_files["taxonomy"],
                   "--config", str(cfg), "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown key" in err

    def test_missing_required_flag(self, fixture_files, capsys):
        code = run("pairs", "--corpus", fixture_files["corpus"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--taxonomy" in err


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
        for command in ("validate", "pairs", "train", "cluster", "eval"):
            assert run(command, *base, "--out-dir", str(steps_dir)) == 0

        calls = {}
        for name in ("load_word_vectors", "load_corpus", "load_taxonomy"):
            def counting(*a, _name=name, _fn=getattr(cli, name), **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*a, **kw)
            monkeypatch.setattr(cli, name, counting)
        assert run("run-all", *base, "--out-dir", str(all_dir)) == 0
        assert calls == {"load_word_vectors": 1, "load_corpus": 1, "load_taxonomy": 1}
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
