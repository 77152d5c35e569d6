"""Command-line pipeline: validate, pairs, train, cluster, eval, ablate.

Each invocation builds one ``Run``, which resolves the configuration (defaults,
optional INI file, flag overrides) once and parses and hashes each input file at
most once. A writing command names its outputs before it reads any input; ``Run``
then checks ``manifest.json`` and refuses an output that would overwrite an input
file (--corpus, --vectors, --taxonomy, --config), one of --out-dir's artifacts or
another output. The files a step reads and writes, with the config hash and seed,
become its manifest entry. Artifacts embed the config hash; a command that reads
``pairs.jsonl`` or ``model.json`` from disk rejects one produced under a different
configuration, while ``run-all`` hands the pairs and network of one step to the
next in memory. All writes go to a temporary file first and are renamed into
place, so a failed command never leaves a partial artifact. Reruns with identical
inputs, configuration and seeds are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from . import clustering as _clustering
from .ablation import check_combos, format_ablation, run_ablation
from .config import FLAGS, config_hash, resolve, train_config_from
from .corpus import AnnotatedCorpus, load_corpus, load_word_vectors, save_corpus
from .errors import ArtifactMismatchError, MetricGrouperError, MissingLabelError, MissingModelError
from .evaluation import (LEARNED_METHOD, METHODS, check_k, evaluate_run, format_report,
                         gold_and_k, method_setup)
from .fixture import write_fixture
from .lexicon import load_taxonomy, mapped
from .network import MetricNetwork, check_hidden_dims, load_model, save_model, train
from .pairs import generate_pairs, generate_samples, load_pairs, save_pairs

PAIRS_FILE = "pairs.jsonl"
MODEL_FILE = "model.json"
CLUSTERS_FILE = "clusters.tsv"
METRICS_FILE = "metrics.json"
ABLATION_FILE = "ablation.json"
MANIFEST_FILE = "manifest.json"
ARTIFACT_FILES = (PAIRS_FILE, MODEL_FILE, CLUSTERS_FILE, METRICS_FILE, ABLATION_FILE,
                  MANIFEST_FILE)
INPUT_FLAGS = ("corpus", "vectors", "taxonomy", "config")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path, content):
    """Replace ``path`` with text ``content``, or what ``content(tmp_path)`` writes.

    The temp file is unique to this call (runs sharing an out dir never collide), is
    removed if writing fails, and gets the umask permissions a plain open() would give.
    """
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            if callable(content):
                content(tmp)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise MetricGrouperError(f"--{name.replace('_', '-')} is required for this command")


def _read_manifest(path):
    """A manifest's ``{"commands": {...}}`` object; an empty one if ``path`` does not exist."""
    if not os.path.exists(path):
        return {"commands": {}}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except UnicodeDecodeError as exc:
            raise MetricGrouperError(f"{path} is not valid UTF-8; move it aside") from exc
        except json.JSONDecodeError as exc:
            raise MetricGrouperError(f"{path} is not valid JSON ({exc}); move it aside") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("commands", {}), dict):
        raise MetricGrouperError(f'{path} is not a {{"commands": {{...}}}} object; move it aside')
    manifest.setdefault("commands", {})
    return manifest


class Run:
    """One CLI invocation: its configuration, parsed files, checksums and manifest.

    Each is computed on first use and kept. A step names its outputs (``claim``),
    notes each file it reads (``load``, ``artifact``) and writes (``write``), and
    ``record`` turns those notes into its manifest entry.
    """

    def __init__(self, args):
        self.args = args
        self.values = {}  # input or artifact name -> parsed or produced value
        self.digests = {}
        self.outputs, self.reads, self.writes = {}, {}, {}  # this step's name -> path

    @functools.cached_property
    def config(self):
        overrides = {flag: getattr(self.args, flag, None) for flag in [*FLAGS, "seed"]}
        return resolve(getattr(self.args, "config", None), overrides)

    @functools.cached_property
    def chash(self):
        return config_hash(self.config)

    @functools.cached_property
    def manifest(self):
        return _read_manifest(os.path.join(self.args.out_dir, MANIFEST_FILE))

    def claim(self, *names, dumps=()):
        """Start a step that writes --out-dir's ``names`` and the ``dumps`` flags' files.

        Runs before any input is parsed: the manifest is read and checked, and an
        output is refused if it would overwrite an input file, one of --out-dir's
        artifacts or another output, if it is a directory, or if its directory does
        not exist.
        """
        _require(self.args, "out_dir")
        dumps = {flag.replace("_", "-"): path for flag in dumps
                 if (path := getattr(self.args, flag, None))}
        taken = {os.path.realpath(path): f"--{flag}" for flag in INPUT_FLAGS
                 if (path := getattr(self.args, flag, None))}
        for name in ARTIFACT_FILES:
            taken.setdefault(os.path.realpath(os.path.join(self.args.out_dir, name)),
                             f"--out-dir's {name}")
        self.outputs = {name: os.path.join(self.args.out_dir, name) for name in names} | dumps
        for name, path in self.outputs.items():
            owner = f"--{name}" if name in dumps else f"--out-dir's {name}"
            label = f"{owner} {path}" if name in dumps else owner
            real = os.path.realpath(path)
            if taken.setdefault(real, owner) != owner:
                raise MetricGrouperError(f"{label} would overwrite {taken[real]}")
            if os.path.isdir(path):
                raise MetricGrouperError(f"{label} is a directory")
            if name in dumps and not os.path.isdir(os.path.dirname(path) or "."):
                raise MetricGrouperError(f"{label}: no directory {os.path.dirname(path)}")
        self.reads, self.writes = {}, {}
        self.manifest  # a malformed manifest stops the command before it parses anything

    def load(self, name, errors=None):
        """The parsed --corpus, --vectors or --taxonomy file, read at most once; with an
        ``errors`` list, its loader notes each problem there instead of raising. Of
        --vectors, only the rows of ``_lookups()`` are kept."""
        if self.values.get(name) is None:
            _require(self.args, name)
            # built at each call so that a wrapper set on this module (as bench/tracing.py
            # sets) sees every load
            loader = {"corpus": load_corpus, "vectors": load_word_vectors,
                      "taxonomy": load_taxonomy}[name]
            keep = {"keep": self._lookups()} if name == "vectors" else {}
            self.values[name] = loader(getattr(self.args, name), errors=errors, **keep)
        self.reads[name] = getattr(self.args, name)
        return self.values[name]

    def _lookups(self):
        """Every token this command can look a vector up for: the tokens of the corpus it
        has read or, for a command that reads none, of its pairs. A phrase's tokens are
        among its sentence's, so phrase vectors are covered too."""
        corpus = self.values.get("corpus")
        if corpus is not None:
            return corpus.distinct_tokens()
        return {token for pair in self.values[PAIRS_FILE]
                for sample in (pair.left, pair.right) for token in sample.context_tokens}

    def artifact(self, name):
        """--out-dir's ``name`` as an earlier step of this run made it, or else as read
        from disk once its config hash is checked."""
        path = os.path.join(self.args.out_dir, name)
        if self.values.get(name) is None:
            loader, step, error = {PAIRS_FILE: (load_pairs, "pairs", MetricGrouperError),
                                   MODEL_FILE: (load_model, "train", MissingModelError)}[name]
            if not os.path.exists(path):
                raise error(f"no {name} in {self.args.out_dir}; run the {step} command first")
            value, meta = loader(path)
            embedded = (meta or {}).get("config_hash")
            if embedded != self.chash:
                found = ("no config hash" if embedded is None
                         else f"config hash {str(embedded)[:12]}...")
                raise ArtifactMismatchError(
                    f"{path} carries {found}, current configuration hashes to "
                    f"{self.chash[:12]}...; regenerate it or restore the original configuration")
            self.values[name] = value
        self.reads[name] = path
        return self.values[name]

    def write(self, name, content, value=None):
        """Write claimed output ``name`` and return its path; ``artifact(name)`` gives ``value``."""
        path = self.outputs[name]
        os.makedirs(self.args.out_dir, exist_ok=True)
        _atomic_write(path, content)
        self.digests[path] = _sha256(path)
        self.writes[name] = path
        self.values[name] = value
        return path

    def sha256(self, path):
        if path not in self.digests:
            self.digests[path] = _sha256(path)
        return self.digests[path]

    def record(self, command, seed):
        """Set ``command``'s manifest entry from the step's reads and writes; rewrite the file."""
        self.manifest["commands"][command] = {
            "config_hash": self.chash,
            "seed": seed,
            "inputs": {name: self.sha256(path) for name, path in sorted(self.reads.items())},
            "outputs": {name: self.sha256(path) for name, path in sorted(self.writes.items())},
        }
        _atomic_write(os.path.join(self.args.out_dir, MANIFEST_FILE),
                      json.dumps(self.manifest, sort_keys=True, indent=1) + "\n")


def cmd_validate(run):
    """Summarize the input files, read by ``Run.load`` with one problem list each, and
    print every problem (exit 1); the parsed files stay in ``run`` for later steps."""
    args = run.args
    _require(args, "corpus", "vectors")
    errors = {"corpus": [], "vectors": [], "taxonomy": []}
    corpus, table = run.load("corpus", errors["corpus"]), run.load("vectors", errors["vectors"])
    tax = run.load("taxonomy", errors["taxonomy"]) if args.taxonomy else None

    print(f"sentences: {len(corpus)}")
    print(f"mentions: {corpus.mention_count()}")
    print(f"distinct phrases: {len(corpus.phrase_index)}")
    print(f"gold labels: {'present' if corpus.has_labels() else 'absent'}")
    if table is not None:
        print(f"word vectors: {len(table)} entries, dimension {table.dimension}")
        if table.duplicate_count:
            print(f"warning: {table.duplicate_count} duplicate token(s) ignored (first wins)")
        known, total = table.coverage(corpus.distinct_tokens())
        pct = 100.0 * known / total if total else 100.0
        print(f"vocabulary coverage: {known}/{total} ({pct:.1f}%)")
        if known < total:
            print(f"warning: {total - known} corpus token(s) have no vector")
    if tax is not None:
        print(f"taxonomy: {len(tax.concepts)} concepts, {len(tax.word_map)} mapped words")
        count = len(mapped(corpus.phrases(), tax)[0])
        print(f"phrases with a concept mapping: {count}/{len(corpus.phrase_index)}")

    problems = [f"{name}: {e}" for name, found in errors.items() for e in found]
    for problem in problems:
        print(f"error: {problem}")
    print("validation: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def cmd_make_fixture(run):
    _require(run.args, "out_dir")
    for path in write_fixture(run.args.out_dir):
        print(f"wrote {path}")
    return 0


def cmd_split(run):
    _require(run.args, "corpus", "out_dir")
    section = run.config["split"]
    ratios = (section["train_ratio"], section["test_ratio"], section["dev_ratio"])
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise MetricGrouperError(f"split ratios {ratios} do not sum to 1")
    run.claim("train.jsonl", "test.jsonl", "dev.jsonl")
    corpus = run.load("corpus")
    rng = np.random.default_rng(section["seed"])
    order = rng.permutation(len(corpus.sentences))
    n_train = round(len(order) * ratios[0])
    n_test = round(len(order) * ratios[1])
    buckets = {
        "train.jsonl": order[:n_train],
        "test.jsonl": order[n_train:n_train + n_test],
        "dev.jsonl": order[n_train + n_test:],
    }
    for (name, idxs), ratio in zip(buckets.items(), ratios):  # readers refuse an empty part
        if not len(idxs):
            raise MetricGrouperError(f"[split] {name[:-6]}_ratio: {ratio:g} of {len(order)} "
                                     f"sentences leaves {name} empty")
    for name, idxs in buckets.items():
        part = AnnotatedCorpus(corpus.sentences[i] for i in sorted(idxs))
        path = run.write(name, lambda tmp, part=part: save_corpus(part, tmp))
        print(f"wrote {path} ({len(part)} sentences)")
    run.record("split", section["seed"])
    return 0


def _draw_pairs(run):
    """Distant-supervision pairs of --corpus under --taxonomy, as [pairs] sets them."""
    section = run.config["pairs"]
    return generate_pairs(generate_samples(run.load("corpus")), run.load("taxonomy"),
                          section["eta"], seed=section["seed"], max_pos=section["max_pos"])


def cmd_pairs(run):
    _require(run.args, "corpus", "taxonomy", "out_dir")
    section = run.config["pairs"]
    run.claim(PAIRS_FILE)
    corpus, tax = run.load("corpus"), run.load("taxonomy")
    unmapped = len(corpus.phrase_index) - len(mapped(corpus.phrases(), tax)[0])
    print(f"phrases with no concept mapping (never incompatible): "
          f"{unmapped}/{len(corpus.phrase_index)}")
    pairs = _draw_pairs(run)
    positives = sum(1 for p in pairs if p.label == 1)
    header = {
        "config_hash": run.chash,
        "eta": section["eta"],
        "seed": section["seed"],
        "positives": positives,
        "negatives": len(pairs) - positives,
    }
    path = run.write(PAIRS_FILE, lambda tmp: save_pairs(pairs, tmp, header=header), pairs)
    print(f"wrote {path} ({positives} positive / {len(pairs) - positives} negative pairs)")
    run.record("pairs", section["seed"])
    return 0


def cmd_train(run):
    _require(run.args, "vectors", "out_dir")
    net_sec = run.config["network"]
    check_hidden_dims(net_sec["hidden_dims"], net_sec["layers"])
    run.claim(MODEL_FILE)
    pairs = run.artifact(PAIRS_FILE)
    table = run.load("vectors")
    cfg = train_config_from(run.config)
    net = MetricNetwork.create(
        table.dimension, mode=run.config["composition"]["mode"],
        output_dim=net_sec["output_dim"], n_layers=net_sec["layers"],
        hidden_dims=net_sec["hidden_dims"], activation=net_sec["activation"],
        seed=cfg.seed)
    net, history = train(net, pairs, table, cfg)
    for epoch, value in enumerate(history, 1):
        print(f"epoch {epoch}: mean objective {value:.6f}")
    path = run.write(MODEL_FILE, lambda tmp: save_model(
        net, tmp, config_hash=run.chash, extra={"loss_history": history}), net)
    print(f"wrote {path}")
    run.record("train", cfg.seed)
    return 0


def _scored_inputs(run, learned, scoring):
    """(model.json if ``learned`` else None, corpus, vectors, k): k, --k or the gold group
    count, is checked before --vectors is read, and ``scoring`` needs gold groups even with
    --k; a model that composes word vectors of another width than --vectors stops the
    command before anything is composed."""
    net = run.artifact(MODEL_FILE) if learned else None
    corpus, k = run.load("corpus"), run.config["clustering"]["k"]
    if not (scoring or k is not None or corpus.has_labels()):
        raise MissingLabelError("corpus carries no gold groups to count clusters by; pass --k")
    k = gold_and_k(corpus, k)[1] if scoring or k is None else check_k(corpus, k)
    table = run.load("vectors")
    if net is not None and net.word_dim != table.dimension:
        raise MetricGrouperError(
            f"{run.reads[MODEL_FILE]} composes {net.word_dim}-dimensional word "
            f"vectors; --vectors {run.args.vectors} has dimension {table.dimension}")
    return net, corpus, table, k


def cmd_cluster(run):
    args = run.args
    _require(args, "corpus", "vectors", "out_dir")
    section = run.config["clustering"]
    run.claim(CLUSTERS_FILE, dumps=("dump_composed", "dump_centroids"))
    method = getattr(args, "method", LEARNED_METHOD)
    trained, corpus, table, k = _scored_inputs(run, method == LEARNED_METHOD, scoring=False)
    net, mode = method_setup(method, trained)
    phrases, composed, points = _clustering.phrase_points(corpus, table, net=net, mode=mode)
    result = _clustering.kmeans(points, k, seed=section["seed"], n_init=section["n_init"],
                                max_iter=section["max_iter"])

    lines = [f"# config_hash={run.chash}"]
    lines += [f"{phrase}\t{label}" for phrase, label in zip(phrases, result.labels.tolist())]
    path = run.write(CLUSTERS_FILE, "\n".join(lines) + "\n")
    print(f"wrote {path} (k={k}, metric={_clustering.metric_for(net)}, "
          f"inertia={result.inertia:.6f})")
    if result.empty_clusters:
        print(f"warning: empty clusters {list(result.empty_clusters)}")

    if getattr(args, "dump_composed", None):
        rows = [f"{p}\t" + " ".join(repr(float(v)) for v in row)
                for p, row in zip(phrases, composed)]
        run.write("dump-composed", "\n".join(rows) + "\n")
        print(f"wrote {args.dump_composed}")
    if getattr(args, "dump_centroids", None):
        rows = [" ".join(repr(float(v)) for v in c) for c in result.centroids]
        run.write("dump-centroids", "\n".join(rows) + "\n")
        print(f"wrote {args.dump_centroids}")
    run.record("cluster", section["seed"])
    return 0


def _scoring(resolved):
    """The [clustering] and [evaluation] settings that score a method, as keywords."""
    clustering, evaluation = resolved["clustering"], resolved["evaluation"]
    return {"k": clustering["k"], "runs": evaluation["runs"], "seed": evaluation["seed"],
            "n_init": clustering["n_init"], "max_iter": clustering["max_iter"]}


def _report(run, name, report, formatter, command):
    """Write ``report`` with the config hash as ``name``, print its table, record the step."""
    report["config_hash"] = run.chash
    path = run.write(name, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(formatter(report))
    print(f"wrote {path}")
    run.record(command, run.config["evaluation"]["seed"])
    return 0


def cmd_eval(run):
    _require(run.args, "corpus", "vectors", "out_dir")
    methods = run.config["evaluation"]["methods"]
    run.claim(METRICS_FILE)
    net, corpus, table, _ = _scored_inputs(run, LEARNED_METHOD in methods, scoring=True)
    report = evaluate_run(corpus, table, methods, net=net, **_scoring(run.config))
    return _report(run, METRICS_FILE, report, format_report, "eval")


def cmd_ablate(run):
    _require(run.args, "corpus", "vectors", "out_dir")
    resolved = run.config
    combos = resolved["ablation"]["combos"]
    check_combos(combos, resolved["network"]["hidden_dims"])  # before any input is read
    trains = any(c.train for c in combos)
    if trains:
        _require(run.args, "taxonomy")  # only the trained combos' pairs read it
    run.claim(ABLATION_FILE)
    corpus = run.load("corpus")
    gold_and_k(corpus, resolved["clustering"]["k"])  # unscorable: stop before any pair is drawn
    report = run_ablation(
        corpus, run.load("vectors"), combos,
        train_pairs=_draw_pairs(run) if trains else None,
        train_cfg=train_config_from(resolved),
        output_dim=resolved["network"]["output_dim"],
        hidden_dims=resolved["network"]["hidden_dims"], **_scoring(resolved))
    return _report(run, ABLATION_FILE, report, format_ablation, "ablate")


def cmd_run_all(run):
    _require(run.args, "corpus", "vectors", "taxonomy", "out_dir")
    net_sec = run.config["network"]
    check_hidden_dims(net_sec["hidden_dims"], net_sec["layers"])  # before pairs.jsonl is written
    run.claim(PAIRS_FILE, MODEL_FILE, CLUSTERS_FILE, METRICS_FILE)  # before validate parses
    code = cmd_validate(run)
    if code:
        return code
    gold_and_k(run.load("corpus"), run.config["clustering"]["k"])  # before pairs.jsonl is written
    for step in (cmd_pairs, cmd_train, cmd_cluster, cmd_eval):
        step(run)
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI)")
    common.add_argument("--corpus", help="corpus file (JSON lines)")
    common.add_argument("--vectors", help="word-vector text file")
    common.add_argument("--taxonomy", help="taxonomy file (JSON lines)")
    common.add_argument("--out-dir", help="directory for output artifacts")
    common.add_argument("--seed", type=int, help="override every section seed")
    for flag, (_section, text) in sorted(FLAGS.items()):
        common.add_argument(f"--{flag.replace('_', '-')}", dest=flag, help=text)

    parser = argparse.ArgumentParser(
        prog="metric-grouper",
        description="Group aspect phrases with a learned deep distance metric.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_command, text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    cluster = sub.choices["cluster"]
    cluster.add_argument("--method", default=LEARNED_METHOD, choices=METHODS,
                         help=f"learned path ({LEARNED_METHOD}) or a baseline composition")
    cluster.add_argument("--dump-composed", help="also write composed vectors (TSV)")
    cluster.add_argument("--dump-centroids", help="also write cluster centroids")
    return parser


COMMANDS = {  # name -> (function, help), in --help order
    "validate": (cmd_validate, "check corpus, vectors and taxonomy files"),
    "make-fixture": (cmd_make_fixture, "write the bundled synthetic dataset"),
    "split": (cmd_split, "seeded sentence-level train/test/dev split"),
    "pairs": (cmd_pairs, "generate distant-supervision training pairs"),
    "train": (cmd_train, "train the metric network on generated pairs"),
    "cluster": (cmd_cluster, "cluster phrase representations"),
    "eval": (cmd_eval, "average Purity/Entropy over repeated clustering runs"),
    "ablate": (cmd_ablate, "compare module combinations against the phrase-only row"),
    "run-all": (cmd_run_all, "validate, pairs, train, cluster and eval in sequence"),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](Run(args))
    except (MetricGrouperError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
