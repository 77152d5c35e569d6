"""Benchmark workloads: seeded input generation and the command each runs.

Every workload writes its inputs into a directory before any timing
starts; the program only ever sees those files. The same seed writes the
same bytes. Generation runs in its own process:

    python3 bench/workloads.py <workload> <out_dir> <seed>

prints the input paths and sizes as JSON. The runner must stay small:
Linux counts the parent's resident set at fork into every child's
``ru_maxrss``, so the runner neither generates inputs nor imports numpy.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field

CATALOG_GROUPS = 20
CATALOG_PHRASES_PER_GROUP = 20
CATALOG_SENTENCES_PER_PHRASE = 6
CATALOG_ADJECTIVES_PER_GROUP = 8
CATALOG_DIMENSION = 100
CATALOG_VECTOR_ROWS = 20500
CATALOG_FUNCTION_WORDS = ("the", "is", "and")

LONG_CONTEXT_SENTENCES_PER_PHRASE = 1000

ABLATE_COMBOS = "ap:0:raw,avg:0:raw,attention:1:trained,attention:3:trained,avg:3:trained"

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand timed end to end
    flags: tuple = ()       # extra CLI flags after the input files
    row: str = "metric"     # learned row whose Purity/Entropy is reported
    expect_perfect: bool = False  # the row must score Purity 1.0 / Entropy 0.0
    why: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fixture", "run-all", expect_perfect=True,
            why="bundled fixture through run-all: training-bound on tiny matrices, "
                "per-step Python overhead dominates; correctness anchor"),
        Workload(
            "catalog", "run-all", flags=("--max-pos", "1000", "--epochs", "2"),
            why="20 groups x 20 phrases, 20.5k x 100 vectors: K-means and vector "
                "parsing dominate, training runs on wider matrices"),
        Workload(
            "long-context", "run-all", flags=("--max-pos", "1000", "--epochs", "1"),
            why="6 phrases x 1000 sentences: quadratic positive-pair enumeration "
                "and composition over ~1000-sentence contexts"),
        Workload(
            "fixture-ablate", "ablate",
            flags=("--epochs", "10", "--combos", ABLATE_COMBOS),
            row="attention:3:trained", expect_perfect=True,
            why="fixture through ablate: the only path into run_ablation, with "
                "recomposing and static trained combos side by side"),
    )
}

# The workloads BENCHMARK.json gates. On a shared 2-core host the speed of
# Python-bound code moves by up to 1.8x for a minute or more, so a gated
# workload needs runs of about a minute, and the benchmark's time limit
# allows two. `fixture-ablate` is the only path into run_ablation and is
# training-bound like `fixture`; `long-context` spread most from seed to
# seed (see README.md, "Steadiness"). Both ungated ones still run with
# --workload and --all.
GATED = ("catalog", "fixture-ablate")


@dataclass
class Inputs:
    """Paths of a generated input set and the sizes that describe it."""
    corpus: str
    vectors: str
    taxonomy: str
    config: str | None
    sizes: dict = field(default_factory=dict)

    def cli_args(self):
        args = ["--corpus", self.corpus, "--vectors", self.vectors,
                "--taxonomy", self.taxonomy]
        if self.config:
            args += ["--config", self.config]
        return args


def _words(rng, count):
    """``count`` distinct pronounceable three-syllable tokens."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    n = len(syllables)
    picks = rng.choice(n ** 3, size=count, replace=False)
    return [syllables[i // (n * n)] + syllables[(i // n) % n] + syllables[i % n]
            for i in picks.tolist()]


def write_catalog(out_dir, seed):
    """Seeded catalog: gold groups of phrases told apart only by context.

    Phrase vectors carry no group signal; each group has its own
    adjectives, which sit near a group-specific direction. Most vector
    rows are filler words that no sentence uses, as in a real embedding
    file. The taxonomy is root -> group -> one leaf per phrase.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n_phrases = CATALOG_GROUPS * CATALOG_PHRASES_PER_GROUP
    n_adjectives = CATALOG_GROUPS * CATALOG_ADJECTIVES_PER_GROUP
    n_filler = CATALOG_VECTOR_ROWS - n_phrases - n_adjectives - len(CATALOG_FUNCTION_WORDS)
    words = _words(rng, n_phrases + n_adjectives + n_filler)
    phrases = [words[g * CATALOG_PHRASES_PER_GROUP:(g + 1) * CATALOG_PHRASES_PER_GROUP]
               for g in range(CATALOG_GROUPS)]
    adjectives = [words[n_phrases + g * CATALOG_ADJECTIVES_PER_GROUP:
                        n_phrases + (g + 1) * CATALOG_ADJECTIVES_PER_GROUP]
                  for g in range(CATALOG_GROUPS)]
    filler = words[n_phrases + n_adjectives:]

    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for g in range(CATALOG_GROUPS):
            for phrase in phrases[g]:
                for _ in range(CATALOG_SENTENCES_PER_PHRASE):
                    a, b = rng.choice(CATALOG_ADJECTIVES_PER_GROUP, size=2)
                    tokens = ["the", phrase, "is", adjectives[g][a], "and", adjectives[g][b]]
                    record = {"tokens": tokens,
                              "mentions": [{"phrase": phrase, "start": 1, "end": 2, "group": g}]}
                    fh.write(json.dumps(record, sort_keys=True) + "\n")

    dim = CATALOG_DIMENSION
    directions = rng.standard_normal((CATALOG_GROUPS, dim))
    rows = []
    for g in range(CATALOG_GROUPS):
        rows += [(w, rng.standard_normal(dim)) for w in phrases[g]]
        rows += [(w, directions[g] + 0.3 * rng.standard_normal(dim)) for w in adjectives[g]]
    rows += [(w, 0.1 * rng.standard_normal(dim)) for w in CATALOG_FUNCTION_WORDS]
    rows += [(w, rng.standard_normal(dim)) for w in filler]
    order = rng.permutation(len(rows))
    vectors_path = os.path.join(out_dir, "vectors.txt")
    with open(vectors_path, "w", encoding="utf-8") as fh:
        for i in order.tolist():
            word, vec = rows[i]
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec.tolist()) + "\n")

    taxonomy_path = os.path.join(out_dir, "taxonomy.jsonl")
    with open(taxonomy_path, "w", encoding="utf-8") as fh:
        records = [{"concept": "root", "parents": [], "count": 0.0}]
        for g in range(CATALOG_GROUPS):
            records.append({"concept": f"group-{g}", "parents": ["root"], "count": 0.0})
            for phrase in phrases[g]:
                records.append({"concept": f"leaf-{phrase}", "parents": [f"group-{g}"],
                                "count": 1.0})
                records.append({"word": phrase, "concepts": [f"leaf-{phrase}"]})
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return Inputs(corpus_path, vectors_path, taxonomy_path, None)


def write_long_context(out_dir, seed):
    """Fixture vectors, taxonomy and config over a 1000-sentences-per-phrase corpus."""
    from metric_grouper import fixture
    from metric_grouper.corpus import save_corpus

    inputs = write_fixture(out_dir, seed)
    save_corpus(fixture.make_corpus(LONG_CONTEXT_SENTENCES_PER_PHRASE, seed=seed), inputs.corpus)
    return inputs


def write_fixture(out_dir, seed):
    """The bundled fixture; it has no seed of its own to vary."""
    from metric_grouper import fixture

    return Inputs(*fixture.write_fixture(out_dir))


GENERATORS = {
    "fixture": write_fixture,
    "catalog": write_catalog,
    "long-context": write_long_context,
    "fixture-ablate": write_fixture,
}


def _count_lines(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def describe(inputs):
    """Sizes of a generated input set, read back from its files."""
    sentences, phrase_counts, groups = 0, {}, set()
    with open(inputs.corpus, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            sentences += 1
            for m in json.loads(line)["mentions"]:
                phrase_counts[m["phrase"]] = phrase_counts.get(m["phrase"], 0) + 1
                if m.get("group") is not None:
                    groups.add(m["group"])
    with open(inputs.vectors, encoding="utf-8") as fh:
        dimension = len(fh.readline().split()) - 1
    return {
        "sentences": sentences,
        "phrases": len(phrase_counts),
        "groups": len(groups),
        "vector_rows": _count_lines(inputs.vectors),
        "vector_dimension": dimension,
        "corpus_bytes": os.path.getsize(inputs.corpus),
        "vector_bytes": os.path.getsize(inputs.vectors),
        "taxonomy_bytes": os.path.getsize(inputs.taxonomy),
        "positive_candidates": sum(m * (m - 1) // 2 for m in phrase_counts.values()),
    }


def generate(name, out_dir, seed):
    """Write the inputs of workload ``name`` and record their sizes."""
    inputs = GENERATORS[name](out_dir, seed)
    inputs.sizes = describe(inputs)
    return inputs


if __name__ == "__main__":
    workload, out, seed = sys.argv[1:]
    print(json.dumps(asdict(generate(workload, out, int(seed)))))
