"""Aspect-phrase grouping with an attention-composed deep distance metric.

The pipeline: distant-supervision pairs from a lexicon taxonomy, a
Siamese metric network over attention-composed (phrase, context) vectors,
K-means in the learned subspace, Purity/Entropy scoring.
"""

__version__ = "0.1.0"

from .clustering import Clustering, kmeans, phrase_points
from .composition import AttentionParams, compose_test_phrase
from .corpus import AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable, load_corpus, load_word_vectors
from .evaluation import entropy, evaluate_run, purity
from .lexicon import Taxonomy, incompatible, information_content, jcn_similarity, lcs, load_taxonomy
from .network import MetricNetwork, TrainConfig, load_model, pair_loss, save_model, train
from .pairs import AspectSample, SamplePair, generate_pairs, generate_samples

__all__ = [
    "AnnotatedCorpus",
    "AnnotatedSentence",
    "AspectSample",
    "AttentionParams",
    "Clustering",
    "MetricNetwork",
    "Mention",
    "SamplePair",
    "Taxonomy",
    "TrainConfig",
    "WordVectorTable",
    "compose_test_phrase",
    "entropy",
    "evaluate_run",
    "generate_pairs",
    "generate_samples",
    "incompatible",
    "information_content",
    "jcn_similarity",
    "kmeans",
    "lcs",
    "load_corpus",
    "load_model",
    "load_taxonomy",
    "load_word_vectors",
    "pair_loss",
    "phrase_points",
    "purity",
    "save_model",
    "train",
]
