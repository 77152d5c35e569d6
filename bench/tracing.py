"""Span tracing of one CLI run, from the benchmark's side of each layer.

Run as a script, this is the traced child process:

    python bench/tracing.py --spans OUT.json --t0 T -- run-all --corpus ...

It wraps each layer's public function at the name its caller looks it up
by, runs ``metric_grouper.cli.main`` on the remaining arguments, and
writes every span and counter to OUT.json once, after the command
returns. Spans stay in memory until then. ``T`` is the parent's
``time.perf_counter()`` just before it spawned this process; on Linux
that clock is CLOCK_MONOTONIC, shared by every process, so the root span
covers interpreter start and imports as well.

Imported, this module only derives per-layer metrics from such a file.
The program runs single-threaded here (the runner unsets the ablation
thread setting), so spans nest strictly and a span's children never
overlap.
"""
from __future__ import annotations

import array
import base64
import functools
import importlib
import inspect
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """In-memory spans and counters of one process.

    Span ``i`` is ``names[kind[i]]`` from ``start[i]`` to ``end[i]`` under
    span ``parent[i]`` (-1 for the root). The columns are typed arrays so
    that writing a hundred thousand spans takes milliseconds, not the
    fraction of a second that printing their floats would add to the
    traced run's wall time.
    """

    def __init__(self):
        self.names = []
        self.kind = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.stack = [-1]
        self.counts = {}
        self.distinct = set()
        self.context_tokens = {}

    def _code(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name, start=None):
        idx = len(self.start)
        self.kind.append(self._code(name))
        self.start.append(_clock() if start is None else start)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = _clock()
        self.stack.pop()

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after`` sees the call outside it."""
        code = self._code(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def dump(self, path, **extra):
        columns = {k: base64.b64encode(getattr(self, k).tobytes()).decode("ascii")
                   for k in SPAN_COLUMNS}
        doc = {"names": self.names, "counts": self.counts, **columns, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


SPAN_COLUMNS = {"kind": "i", "start": "d", "end": "d", "parent": "i"}


def load_spans(doc):
    """``[(name, start, end, parent), ...]`` from a dumped span file."""
    cols = {}
    for key, code in SPAN_COLUMNS.items():
        cols[key] = array.array(code)
        cols[key].frombytes(base64.b64decode(doc[key]))
    names = doc["names"]
    return [(names[k], s, e, p)
            for k, s, e, p in zip(cols["kind"], cols["start"], cols["end"], cols["parent"])]


def _after_load_word_vectors(tracer, args, kwargs, table):
    if table is not None:
        tracer.add("corpus.vector_rows", len(table))


def _after_generate_pairs(tracer, args, kwargs, pairs):
    samples = args[0] if args else kwargs["samples"]
    per_phrase = {}
    for s in samples:
        per_phrase[s.phrase] = per_phrase.get(s.phrase, 0) + 1
    tracer.add("pairs.positive_candidates", sum(m * (m - 1) // 2 for m in per_phrase.values()))
    tracer.add("pairs.positives_kept", sum(1 for p in pairs if p.label == 1))


def _after_compose_test_phrase(fn):
    sig = inspect.signature(fn)
    names = list(sig.parameters)
    defaults = {k: p.default for k, p in sig.parameters.items()
                if p.default is not inspect.Parameter.empty}

    def after(tracer, args, kwargs, result):
        call = {**defaults, **dict(zip(names, args)), **kwargs}
        phrase, corpus, mode = call["phrase"].lower(), call["corpus"], call["mode"]
        # Only attention mode reads the attention parameters.
        params = call["params"].w_a.tobytes() if mode == "attention" else None
        tracer.distinct.add((phrase, mode, params))
        # Keyed by id, so the corpus is kept alive to stop the id being reused.
        key = (id(corpus), phrase)
        if key not in tracer.context_tokens:
            sids = {sid for sid, _span in corpus.phrase_index[phrase]}
            tracer.context_tokens[key] = (
                corpus, sum(len(corpus.sentences[s].tokens) for s in sids))
        tracer.add("composition.context_tokens", tracer.context_tokens[key][1])
    return after


def _kmeans_counting(tracer, fn):
    """Pass kmeans a restart trace when its caller gave none, and count it."""
    if "trace" not in inspect.signature(fn).parameters:
        return fn

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if kwargs.get("trace") is not None:
            return fn(*args, **kwargs)
        restarts = []
        result = fn(*args, trace=restarts, **kwargs)
        tracer.add("clustering.restarts", len(restarts))
        tracer.add("clustering.lloyd_iters", sum(len(r) for r in restarts))
        return result

    return counted


# (module, attribute, span name): the caller's module and the name it
# calls the layer by. One span name may be wrapped at several call sites.
TARGETS = (
    ("metric_grouper.cli", "load_corpus", "corpus.load_corpus"),
    ("metric_grouper.cli", "load_word_vectors", "corpus.load_word_vectors"),
    ("metric_grouper.cli", "generate_pairs", "pairs.generate_pairs"),
    ("metric_grouper.pairs", "incompatible", "lexicon.incompatible"),
    ("metric_grouper.cli", "save_pairs", "pairs.save_pairs"),
    ("metric_grouper.cli", "load_pairs", "pairs.load_pairs"),
    ("metric_grouper.cli", "train", "network.train"),
    ("metric_grouper.ablation", "train", "network.train"),
    ("metric_grouper.network", "pair_gradients", "network.pair_gradients"),
    ("metric_grouper.network", "compose_backward", "network.compose_backward"),
    ("metric_grouper.network.MetricNetwork", "params_finite", "network.params_finite"),
    ("metric_grouper.network", "objective", "network.objective"),
    ("metric_grouper.clustering", "phrase_points", "clustering.phrase_points"),
    ("metric_grouper.clustering", "compose_test_phrase", "composition.compose_test_phrase"),
    ("metric_grouper.clustering", "kmeans", "clustering.kmeans"),
    ("metric_grouper.cli", "evaluate_run", "evaluation.evaluate_run"),
    ("metric_grouper.evaluation", "contingency", "evaluation.contingency"),
    ("metric_grouper.cli", "run_ablation", "ablation.run_ablation"),
)


def _resolve(path):
    """A module, or a class inside one, by dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def install(tracer):
    """Wrap every target; returns the ``module.attribute`` names not found.

    A layer a later version of the program removes or renames is skipped
    and listed rather than failing the run: its metrics then read 0.
    """
    missing = []
    for owner_path, attr, name in TARGETS:
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            owner = None
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner_path}.{attr}")
            continue
        after = None
        if name == "corpus.load_word_vectors":
            after = _after_load_word_vectors
        elif name == "pairs.generate_pairs":
            after = _after_generate_pairs
        elif name == "composition.compose_test_phrase":
            after = _after_compose_test_phrase(fn)
        traced = tracer.wrap(name, fn, after)
        if name == "clustering.kmeans":
            traced = _kmeans_counting(tracer, traced)
        setattr(owner, attr, traced)
    return missing


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_n, start, end, _p) in enumerate(spans)]


def layer_metrics(doc):
    """Per-layer metric values from one traced run's span file."""
    spans, counts = load_spans(doc), doc["counts"]
    own = self_times(spans)
    total, calls, self_s = {}, {}, {}
    for (name, start, end, _parent), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    vec_s = total.get("corpus.load_word_vectors", 0.0)
    train_s = total.get("network.train", 0.0)
    steps = calls.get("network.pair_gradients", 0)
    kmeans_s = total.get("clustering.kmeans", 0.0)
    restarts = counts.get("clustering.restarts", 0)
    candidates = counts.get("pairs.positive_candidates", 0)
    compose_calls = calls.get("composition.compose_test_phrase", 0)
    return {
        "startup.s": total.get("startup", 0.0),
        "corpus.load_word_vectors.s": vec_s,
        "corpus.load_word_vectors.calls": calls.get("corpus.load_word_vectors", 0),
        "corpus.vector_rows_per_s": ratio(counts.get("corpus.vector_rows", 0), vec_s),
        "corpus.load_corpus.s": total.get("corpus.load_corpus", 0.0),
        "corpus.load_corpus.calls": calls.get("corpus.load_corpus", 0),
        "lexicon.incompatible.s": total.get("lexicon.incompatible", 0.0),
        "lexicon.incompatible.calls": calls.get("lexicon.incompatible", 0),
        "pairs.generate_pairs.self_s": self_s.get("pairs.generate_pairs", 0.0),
        "pairs.positive_candidates": candidates,
        "pairs.positives_kept": counts.get("pairs.positives_kept", 0),
        "pairs.keep_ratio": ratio(counts.get("pairs.positives_kept", 0), candidates),
        "pairs.io_s": total.get("pairs.save_pairs", 0.0) + total.get("pairs.load_pairs", 0.0),
        "composition.compose_test_phrase.s": total.get("composition.compose_test_phrase", 0.0),
        "composition.compose_test_phrase.calls": compose_calls,
        "composition.context_tokens": counts.get("composition.context_tokens", 0),
        "composition.distinct_ratio": ratio(doc["distinct_compositions"], compose_calls),
        "network.train.s": train_s,
        "network.steps": steps,
        "network.us_per_step": ratio(train_s, steps, 1e6),
        "network.pair_gradients.s": total.get("network.pair_gradients", 0.0),
        "network.compose_backward.s": total.get("network.compose_backward", 0.0),
        "network.params_finite.s": total.get("network.params_finite", 0.0),
        "network.objective.s": total.get("network.objective", 0.0),
        "network.train.self_s": self_s.get("network.train", 0.0),
        "clustering.kmeans.s": kmeans_s,
        "clustering.kmeans.calls": calls.get("clustering.kmeans", 0),
        "clustering.restarts": restarts,
        "clustering.ms_per_restart": ratio(kmeans_s, restarts, 1e3),
        "clustering.lloyd_iters": counts.get("clustering.lloyd_iters", 0),
        "clustering.phrase_points.self_s": self_s.get("clustering.phrase_points", 0.0),
        "evaluation.evaluate_run.self_s": self_s.get("evaluation.evaluate_run", 0.0),
        "evaluation.contingency.calls": calls.get("evaluation.contingency", 0),
        "ablation.run_ablation.self_s": self_s.get("ablation.run_ablation", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }


def main(argv):
    """Traced child: ``--spans PATH --t0 SECONDS -- <cli arguments>``."""
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    spans_path = opts[opts.index("--spans") + 1]
    t0 = float(opts[opts.index("--t0") + 1])

    tracer = Tracer()
    root = tracer.open("process", start=t0)
    startup = tracer.open("startup", start=t0)
    from metric_grouper import cli
    missing = install(tracer)
    tracer.close(startup)
    command = tracer.open("cli")
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.close(command)
        tracer.close(root)
        tracer.dump(spans_path, distinct_compositions=len(tracer.distinct), unwrapped=missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
