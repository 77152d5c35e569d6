"""Bundled synthetic dataset for tests, demos and smoke runs.

Two gold groups with three phrases each. The word vectors are built so
that phrase vectors alone are deliberately confusable across groups
(each phrase has a near-twin in the other group), while context
adjectives separate the groups cleanly. Clustering raw phrase vectors
therefore fails, and the learned metric has real signal to find.

The taxonomy is a balanced three-level tree over eight leaves with unit
leaf counts, giving round information-content values: leaves ln 8,
three-leaf subtree roots ln 4, the two main branches ln 2, the root 0.
Phrases within a group sit under one branch and are lexicon-compatible;
phrases across groups share only the root and fall below the default
incompatibility threshold.

The config file that ``write_fixture`` writes holds only the fixture's two
departures from the defaults, the network's output and hidden widths.
"""
from __future__ import annotations

import os

import numpy as np

from .corpus import (AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable, save_corpus,
                     save_word_vectors)
from .lexicon import Taxonomy, save_taxonomy
from .network import MetricNetwork

DIMENSION = 8

GROUP_PHRASES = {
    0: ("picture", "image", "photo"),
    1: ("sound", "audio", "volume"),
}

# Cross-group twins share a pair axis, so phrase vectors carry no group
# signal: AP-style clustering lands near 0.5 purity by construction.
PHRASE_AXIS = {
    "picture": 2, "sound": 2,
    "image": 3, "audio": 3,
    "photo": 4, "volume": 4,
}

GROUP_ADJECTIVES = {
    0: ("sharp", "clear", "bright", "crisp", "vivid", "detailed"),
    1: ("loud", "rich", "deep", "booming", "muffled", "thumping"),
}

FUNCTION_WORDS = ("the", "is", "and", "very", "quite", "really",
                  "looks", "seems", "feels", "a")

SPARE_LEAF_WORDS = ("display", "speaker")

TEMPLATES = (
    ("the", None, "is", "ADJ", "and", "ADJ"),
    ("the", None, "looks", "ADJ"),
    (None, "is", "very", "ADJ"),
    ("the", None, "is", "quite", "ADJ"),
    ("the", None, "seems", "ADJ", "and", "ADJ"),
    ("a", "really", "ADJ", None),
)


def make_vectors(seed=7, noise=0.05):
    """Deterministic 8-dimensional word vectors for the fixture."""
    rng = np.random.default_rng(seed)
    vectors = {}

    def noisy(base):
        return base + noise * rng.standard_normal(DIMENSION)

    for group, adjectives in GROUP_ADJECTIVES.items():
        direction = 1.0 if group == 0 else -1.0
        for word in adjectives:
            base = np.zeros(DIMENSION)
            base[0] = 2.0 * direction
            base[1] = 2.0 * direction
            vectors[word] = noisy(base)
    for phrase, axis in PHRASE_AXIS.items():
        base = np.zeros(DIMENSION)
        base[axis] = 2.0
        vectors[phrase] = noisy(base)
    for word in FUNCTION_WORDS + SPARE_LEAF_WORDS:
        vectors[word] = noisy(np.zeros(DIMENSION))
    return WordVectorTable(DIMENSION, vectors)


def make_corpus(sentences_per_phrase=10, seed=11):
    """Labeled corpus: every sentence mentions exactly one phrase."""
    rng = np.random.default_rng(seed)
    sentences = []
    for group in sorted(GROUP_PHRASES):
        for phrase in GROUP_PHRASES[group]:
            adjectives = GROUP_ADJECTIVES[group]
            for _ in range(sentences_per_phrase):
                template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
                tokens = []
                start = None
                for slot in template:
                    if slot is None:
                        start = len(tokens)
                        tokens.append(phrase)
                    elif slot == "ADJ":
                        tokens.append(adjectives[int(rng.integers(len(adjectives)))])
                    else:
                        tokens.append(slot)
                mention = Mention(phrase, start, start + 1, group)
                sentences.append(AnnotatedSentence(tuple(tokens), (mention,)))
    return AnnotatedCorpus(sentences)


def taxonomy_record_dicts():
    """Concept and word records for the balanced eight-leaf taxonomy."""
    records = [
        {"concept": "root", "parents": [], "count": 0.0},
        {"concept": "visual", "parents": ["root"], "count": 0.0},
        {"concept": "audio-branch", "parents": ["root"], "count": 0.0},
        {"concept": "visual-a", "parents": ["visual"], "count": 0.0},
        {"concept": "visual-b", "parents": ["visual"], "count": 0.0},
        {"concept": "audio-a", "parents": ["audio-branch"], "count": 0.0},
        {"concept": "audio-b", "parents": ["audio-branch"], "count": 0.0},
    ]
    leaves = [
        ("leaf-picture", "visual-a", "picture"),
        ("leaf-image", "visual-a", "image"),
        ("leaf-photo", "visual-b", "photo"),
        ("leaf-display", "visual-b", "display"),
        ("leaf-sound", "audio-a", "sound"),
        ("leaf-audio", "audio-a", "audio"),
        ("leaf-volume", "audio-b", "volume"),
        ("leaf-speaker", "audio-b", "speaker"),
    ]
    for leaf, parent, word in leaves:
        records.append({"concept": leaf, "parents": [parent], "count": 1.0})
        records.append({"word": word, "concepts": [leaf]})
    return records


def make_taxonomy():
    return Taxonomy(taxonomy_record_dicts())


def make_network(seed=42):
    """Fresh fixture-sized network (16 -> 32 -> 16 -> 8)."""
    return MetricNetwork.create(
        DIMENSION, mode="attention", output_dim=FIXTURE_OUTPUT_DIM,
        n_layers=3, hidden_dims=list(FIXTURE_HIDDEN_DIMS), seed=seed)


FIXTURE_OUTPUT_DIM = 8
FIXTURE_HIDDEN_DIMS = (32, 16)

# Only the fixture's departures from the defaults; every other key resolves from config.SCHEMA.
CONFIG_INI = f"""\
[network]
output_dim = {FIXTURE_OUTPUT_DIM}
hidden_dims = {",".join(map(str, FIXTURE_HIDDEN_DIMS))}
"""


def write_fixture(out_dir):
    """Materialize corpus, vectors, taxonomy and a matching config file.

    Returns the four paths (corpus, vectors, taxonomy, config).
    """
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    vectors_path = os.path.join(out_dir, "vectors.txt")
    taxonomy_path = os.path.join(out_dir, "taxonomy.jsonl")
    config_path = os.path.join(out_dir, "config.ini")
    save_corpus(make_corpus(), corpus_path)
    save_word_vectors(make_vectors(), vectors_path)
    save_taxonomy(make_taxonomy(), taxonomy_path)
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG_INI)
    return corpus_path, vectors_path, taxonomy_path, config_path
