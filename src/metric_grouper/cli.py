"""Command-line pipeline: validate, pairs, train, cluster, eval, ablate.

Every command resolves one configuration (defaults, optional INI file,
flag overrides), writes its artifacts under --out-dir with fixed names,
and records a manifest entry carrying the config hash, the seed it used
and content checksums of its inputs and outputs. Artifacts embed the
config hash and downstream commands reject inputs produced under a
different configuration. All writes go to a temporary file first and are
renamed into place, so a failed command never leaves a partial artifact.
Reruns with identical inputs, configuration and seeds are byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from . import clustering as _clustering
from .ablation import format_ablation, parse_combos, run_ablation
from .config import FLAG_MAP, config_hash, resolve, train_config_from
from .corpus import load_corpus, load_word_vectors, save_corpus
from .errors import (
    ArtifactMismatchError,
    MetricGrouperError,
    MissingModelError,
    UnknownWordError,
)
from .evaluation import evaluate_run, format_report
from .fixture import write_fixture
from .lexicon import load_taxonomy
from .network import MetricNetwork, load_model, save_model, train
from .pairs import generate_pairs, generate_samples, load_pairs, save_pairs

PAIRS_FILE = "pairs.jsonl"
MODEL_FILE = "model.json"
CLUSTERS_FILE = "clusters.tsv"
METRICS_FILE = "metrics.json"
ABLATION_FILE = "ablation.json"
MANIFEST_FILE = "manifest.json"


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


def _update_manifest(out_dir, command, chash, seed, inputs, outputs):
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    manifest = {"commands": {}}
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MetricGrouperError(
                    f"{manifest_path} is not valid JSON ({exc}); move it aside") from exc
        manifest.setdefault("commands", {})
    manifest["commands"][command] = {
        "config_hash": chash,
        "seed": seed,
        "inputs": {name: _sha256(path) for name, path in sorted(inputs.items())},
        "outputs": {name: _sha256(path) for name, path in sorted(outputs.items())},
    }
    _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _resolved(args):
    overrides = {}
    for flag in list(FLAG_MAP) + ["seed"]:
        attr = flag.replace("-", "_")
        value = getattr(args, attr, None)
        if value is not None:
            overrides[flag] = value
    return resolve(getattr(args, "config", None), overrides)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise MetricGrouperError(f"--{name.replace('_', '-')} is required for this command")


def _out_dir(args):
    _require(args, "out_dir")
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _load_table(args, loaded=None):
    _require(args, "vectors")
    return loaded["vectors"] if loaded else load_word_vectors(args.vectors)


def _mapped_count(corpus, tax):
    """Distinct phrases mapped to a concept of positive count, as lexicon.incompatible needs."""
    mapped = 0
    for phrase in corpus.phrases():
        try:
            tax.phrase_concepts(phrase)
            mapped += 1
        except UnknownWordError:
            pass
    return mapped


def _check_hash(kind, embedded, current):
    if embedded != current:
        found = "no config hash" if embedded is None else f"config hash {str(embedded)[:12]}..."
        raise ArtifactMismatchError(
            f"{kind} carries {found}, current configuration hashes to {current[:12]}...; "
            f"regenerate it or restore the original configuration")


def cmd_validate(args, loaded=None):
    """Check every input file; a clean run stores the parsed inputs in the ``loaded`` dict."""
    _require(args, "corpus", "vectors")
    problems = []

    corpus_errors = []
    corpus = load_corpus(args.corpus, errors=corpus_errors)
    problems += [f"corpus: {e}" for e in corpus_errors]

    vector_errors = []
    table = load_word_vectors(args.vectors, errors=vector_errors)
    problems += [f"vectors: {e}" for e in vector_errors]

    tax = None
    if args.taxonomy:
        tax_errors = []
        tax = load_taxonomy(args.taxonomy, errors=tax_errors)
        problems += [f"taxonomy: {e}" for e in tax_errors]

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
    if args.taxonomy and tax is not None:
        print(f"taxonomy: {len(tax.concepts)} concepts, {len(tax.word_map)} mapped words")
        mapped = _mapped_count(corpus, tax)
        print(f"phrases with a concept mapping: {mapped}/{len(corpus.phrase_index)}")

    for problem in problems:
        print(f"error: {problem}")
    print("validation: " + ("FAILED" if problems else "ok"))
    if loaded is not None and not problems:
        loaded.update(corpus=corpus, vectors=table, taxonomy=tax)
    return 1 if problems else 0


def cmd_make_fixture(args):
    out_dir = _out_dir(args)
    paths = write_fixture(out_dir)
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_split(args):
    import numpy as np

    _require(args, "corpus")
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    section = resolved["split"]
    ratios = (section["train_ratio"], section["test_ratio"], section["dev_ratio"])
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise MetricGrouperError(f"split ratios {ratios} do not sum to 1")
    corpus = load_corpus(args.corpus)
    rng = np.random.default_rng(section["seed"])
    order = rng.permutation(len(corpus.sentences))
    n_train = round(len(order) * ratios[0])
    n_test = round(len(order) * ratios[1])
    buckets = {
        "train.jsonl": order[:n_train],
        "test.jsonl": order[n_train:n_train + n_test],
        "dev.jsonl": order[n_train + n_test:],
    }
    from .corpus import AnnotatedCorpus

    outputs = {}
    for name, idxs in buckets.items():
        part = AnnotatedCorpus(corpus.sentences[i] for i in sorted(idxs))
        path = os.path.join(out_dir, name)
        _atomic_write(path, lambda tmp, part=part: save_corpus(part, tmp))
        outputs[name] = path
        print(f"wrote {path} ({len(part)} sentences)")
    _update_manifest(out_dir, "split", chash, section["seed"],
                     {"corpus": args.corpus}, outputs)
    return 0


def cmd_pairs(args, loaded=None):
    _require(args, "corpus", "taxonomy")
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    section = resolved["pairs"]
    corpus = loaded["corpus"] if loaded else load_corpus(args.corpus)
    tax = loaded["taxonomy"] if loaded else load_taxonomy(args.taxonomy)
    print(f"phrases with no concept mapping (never incompatible): "
          f"{len(corpus.phrase_index) - _mapped_count(corpus, tax)}/{len(corpus.phrase_index)}")
    samples = generate_samples(corpus)
    pairs = generate_pairs(
        samples, tax, section["eta"], seed=section["seed"],
        max_pos=section["max_pos"], allow_replacement=section["allow_replacement"])
    positives = sum(1 for p in pairs if p.label == 1)
    header = {
        "config_hash": chash,
        "eta": section["eta"],
        "seed": section["seed"],
        "positives": positives,
        "negatives": len(pairs) - positives,
    }
    path = os.path.join(out_dir, PAIRS_FILE)
    _atomic_write(path, lambda tmp: save_pairs(pairs, tmp, header=header))
    print(f"wrote {path} ({positives} positive / {len(pairs) - positives} negative pairs)")
    _update_manifest(out_dir, "pairs", chash, section["seed"],
                     {"corpus": args.corpus, "taxonomy": args.taxonomy},
                     {PAIRS_FILE: path})
    return 0


def cmd_train(args, loaded=None):
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    table = _load_table(args, loaded)
    pairs_path = os.path.join(out_dir, PAIRS_FILE)
    if not os.path.exists(pairs_path):
        raise MetricGrouperError(
            f"no {PAIRS_FILE} in {out_dir}; run the pairs command first")
    pairs, header = load_pairs(pairs_path)
    _check_hash(pairs_path, (header or {}).get("config_hash"), chash)
    cfg = train_config_from(resolved)
    net_sec = resolved["network"]
    mode = resolved["composition"]["mode"]
    net = MetricNetwork.create(
        table.dimension, mode=mode,
        output_dim=net_sec["output_dim"], n_layers=net_sec["layers"],
        hidden_dims=net_sec["hidden_dims"], activation=net_sec["activation"],
        dropout_rate=net_sec["dropout_rate"], seed=cfg.seed)
    net, history = train(net, pairs, table, cfg, mode=mode)
    for epoch, value in enumerate(history, 1):
        print(f"epoch {epoch}: mean objective {value:.6f}")
    model_path = os.path.join(out_dir, MODEL_FILE)
    _atomic_write(model_path, lambda tmp: save_model(
        net, tmp, config_hash=chash, extra={"loss_history": history}))
    print(f"wrote {model_path}")
    _update_manifest(out_dir, "train", chash, cfg.seed,
                     {"vectors": args.vectors, PAIRS_FILE: pairs_path},
                     {MODEL_FILE: model_path})
    return 0


def _load_net(out_dir, chash):
    model_path = os.path.join(out_dir, MODEL_FILE)
    if not os.path.exists(model_path):
        raise MissingModelError(
            f"no {MODEL_FILE} in {out_dir}; run the train command first")
    net, meta = load_model(model_path)
    _check_hash(model_path, meta.get("config_hash"), chash)
    return net, model_path


def cmd_cluster(args, loaded=None):
    _require(args, "corpus")
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    corpus = loaded["corpus"] if loaded else load_corpus(args.corpus)
    table = _load_table(args, loaded)
    section = resolved["clustering"]
    method = getattr(args, "method", "metric")

    inputs = {"corpus": args.corpus, "vectors": args.vectors}
    if method == "metric":
        net, model_path = _load_net(out_dir, chash)
        mode = net.composition_mode
        inputs[MODEL_FILE] = model_path
    else:
        net, mode = None, method

    k = section["k"]
    if k is None:
        gold = corpus.gold_groups()
        if not gold:
            raise MetricGrouperError("k is not configured and the corpus has no gold labels")
        k = len(set(gold.values()))
    metric = section["metric"] or ("euclidean" if net is not None else "cosine")
    composed, projected = _clustering.phrase_points(corpus, table, net=net, mode=mode)
    result = _clustering.kmeans(
        projected, k, metric=metric,
        seed=section["seed"], n_init=section["n_init"], max_iter=section["max_iter"])

    lines = [f"# config_hash={chash}"]
    for phrase in sorted(result.assignments):
        lines.append(f"{phrase}\t{result.assignments[phrase]}")
    clusters_path = os.path.join(out_dir, CLUSTERS_FILE)
    _atomic_write(clusters_path, "\n".join(lines) + "\n")
    print(f"wrote {clusters_path} (k={k}, metric={metric}, inertia={result.inertia:.6f})")
    if result.empty_clusters:
        print(f"warning: empty clusters {list(result.empty_clusters)}")
    outputs = {CLUSTERS_FILE: clusters_path}

    if getattr(args, "dump_composed", None):
        rows = [f"{p}\t" + " ".join(repr(float(v)) for v in composed[p])
                for p in sorted(composed)]
        _atomic_write(args.dump_composed, "\n".join(rows) + "\n")
        outputs[os.path.basename(args.dump_composed)] = args.dump_composed
        print(f"wrote {args.dump_composed}")
    if getattr(args, "dump_centroids", None):
        rows = [" ".join(repr(float(v)) for v in c) for c in result.centroids]
        _atomic_write(args.dump_centroids, "\n".join(rows) + "\n")
        outputs[os.path.basename(args.dump_centroids)] = args.dump_centroids
        print(f"wrote {args.dump_centroids}")

    _update_manifest(out_dir, "cluster", chash, section["seed"], inputs, outputs)
    return 0


def cmd_eval(args, loaded=None):
    _require(args, "corpus")
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    corpus = loaded["corpus"] if loaded else load_corpus(args.corpus)
    table = _load_table(args, loaded)
    methods = resolved["evaluation"]["methods"]
    inputs = {"corpus": args.corpus, "vectors": args.vectors}
    net = None
    if "metric" in methods:
        net, model_path = _load_net(out_dir, chash)
        inputs[MODEL_FILE] = model_path
    report = evaluate_run(
        corpus, table, methods, net=net,
        k=resolved["clustering"]["k"], runs=resolved["evaluation"]["runs"],
        seed=resolved["evaluation"]["seed"],
        n_init=resolved["clustering"]["n_init"],
        max_iter=resolved["clustering"]["max_iter"])
    report["config_hash"] = chash
    metrics_path = os.path.join(out_dir, METRICS_FILE)
    _atomic_write(metrics_path, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(format_report(report))
    print(f"wrote {metrics_path}")
    _update_manifest(out_dir, "eval", chash, resolved["evaluation"]["seed"],
                     inputs, {METRICS_FILE: metrics_path})
    return 0


def cmd_ablate(args):
    _require(args, "corpus", "taxonomy")
    out_dir = _out_dir(args)
    resolved = _resolved(args)
    chash = config_hash(resolved)
    corpus = load_corpus(args.corpus)
    table = _load_table(args)
    tax = load_taxonomy(args.taxonomy)
    combos = parse_combos(resolved["ablation"]["combos"])
    pair_sec = resolved["pairs"]
    train_pairs = None
    if any(c.train for c in combos):
        samples = generate_samples(corpus)
        train_pairs = generate_pairs(
            samples, tax, pair_sec["eta"], seed=pair_sec["seed"],
            max_pos=pair_sec["max_pos"],
            allow_replacement=pair_sec["allow_replacement"])
    report = run_ablation(
        corpus, table, combos,
        train_pairs=train_pairs, train_cfg=train_config_from(resolved),
        output_dim=resolved["network"]["output_dim"],
        hidden_dims=resolved["network"]["hidden_dims"],
        k=resolved["clustering"]["k"], runs=resolved["evaluation"]["runs"],
        seed=resolved["evaluation"]["seed"],
        n_init=resolved["clustering"]["n_init"],
        max_iter=resolved["clustering"]["max_iter"])
    report["config_hash"] = chash
    ablation_path = os.path.join(out_dir, ABLATION_FILE)
    _atomic_write(ablation_path, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(format_ablation(report))
    print(f"wrote {ablation_path}")
    _update_manifest(out_dir, "ablate", chash, resolved["evaluation"]["seed"],
                     {"corpus": args.corpus, "vectors": args.vectors,
                      "taxonomy": args.taxonomy},
                     {ABLATION_FILE: ablation_path})
    return 0


def cmd_run_all(args):
    _require(args, "corpus", "vectors", "taxonomy")
    loaded = {}
    code = cmd_validate(args, loaded)
    if code:
        return code
    for step in (cmd_pairs, cmd_train, cmd_cluster, cmd_eval):
        code = step(args, loaded)
        if code:
            return code
    return 0


def build_parser():
    flag_help = {
        "eta": "incompatibility threshold on lexicon similarity",
        "max_pos": "cap on positive pairs (seeded subsample)",
        "mode": "composition mode: attention|avg|min|max|ap",
        "output_dim": "network output width",
        "layers": "number of weight layers",
        "hidden_dims": "comma-separated hidden widths (default: geometric)",
        "activation": "tanh or identity",
        "dropout_rate": "hidden-layer dropout rate",
        "margin_t": "distance margin threshold t",
        "beta": "softplus sharpness",
        "lambda": "L2 regularization weight",
        "learning_rate": "SGD step size",
        "epochs": "training epochs",
        "k": "cluster count (default: number of gold groups)",
        "metric": "clustering metric: euclidean|cosine",
        "n_init": "k-means restarts per run",
        "max_iter": "k-means iteration cap",
        "runs": "clustering repetitions averaged in reports",
        "methods": "comma-separated eval methods (metric,avg,min,max,ap)",
        "combos": "ablation combos as mode:layers:trained|raw",
    }
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (INI)")
    common.add_argument("--corpus", help="corpus file (JSON lines)")
    common.add_argument("--vectors", help="word-vector text file")
    common.add_argument("--taxonomy", help="taxonomy file (JSON lines)")
    common.add_argument("--out-dir", help="directory for output artifacts")
    common.add_argument("--seed", type=int, help="override every section seed")
    for flag in sorted(FLAG_MAP):
        common.add_argument(f"--{flag.replace('_', '-')}", dest=flag.replace("-", "_"),
                            help=flag_help[flag])

    parser = argparse.ArgumentParser(
        prog="metric-grouper",
        description="Group aspect phrases with a learned deep distance metric.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common],
                   help="check corpus, vectors and taxonomy files")
    sub.add_parser("make-fixture", parents=[common],
                   help="write the bundled synthetic dataset")
    sub.add_parser("split", parents=[common],
                   help="seeded sentence-level train/test/dev split")
    sub.add_parser("pairs", parents=[common],
                   help="generate distant-supervision training pairs")
    sub.add_parser("train", parents=[common],
                   help="train the metric network on generated pairs")
    cluster = sub.add_parser("cluster", parents=[common],
                             help="cluster phrase representations")
    cluster.add_argument("--method", default="metric",
                         choices=["metric", "avg", "min", "max", "ap"],
                         help="learned path (metric) or a baseline composition")
    cluster.add_argument("--dump-composed", help="also write composed vectors (TSV)")
    cluster.add_argument("--dump-centroids", help="also write cluster centroids")
    sub.add_parser("eval", parents=[common],
                   help="average Purity/Entropy over repeated clustering runs")
    sub.add_parser("ablate", parents=[common],
                   help="compare module combinations against the phrase-only row")
    sub.add_parser("run-all", parents=[common],
                   help="validate, pairs, train, cluster and eval in sequence")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "make-fixture": cmd_make_fixture,
    "split": cmd_split,
    "pairs": cmd_pairs,
    "train": cmd_train,
    "cluster": cmd_cluster,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "run-all": cmd_run_all,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except MetricGrouperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
