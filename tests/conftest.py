"""Shared fixtures and the acceptance-criteria reporter."""
import numpy as np
import pytest

from metric_grouper import config
from metric_grouper import fixture as fx
from metric_grouper.network import MetricNetwork, TrainConfig, train
from metric_grouper.pairs import generate_pairs, generate_samples

ACCEPTANCE_RESULTS = {}


def record_criterion(number, name, passed, detail=""):
    """Remember a criterion outcome for the end-of-run summary.

    ``passed`` may be True, False or the string "skip".
    """
    status = "SKIP" if passed == "skip" else ("PASS" if passed else "FAIL")
    ACCEPTANCE_RESULTS[number] = (name, status, detail)


def count_calls(monkeypatch, module, *names):
    """Wrap ``module``'s functions ``names`` to record each call's positional arguments.

    The wrappers call through. Returns ``{name: [args, ...]}``, filled as calls happen.
    """
    calls = {name: [] for name in names}

    def counting(fn, seen):
        def wrapper(*args, **kwargs):
            seen.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(getattr(module, name), calls[name]))
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        name, status, detail = ACCEPTANCE_RESULTS[number]
        line = f"criterion {number:>2} [{status}] {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fixture_corpus():
    return fx.make_corpus()


@pytest.fixture(scope="session")
def fixture_table():
    return fx.make_vectors()


@pytest.fixture(scope="session")
def fixture_taxonomy():
    return fx.make_taxonomy()


@pytest.fixture(scope="session")
def fixture_pairs(fixture_corpus, fixture_taxonomy):
    samples = generate_samples(fixture_corpus)
    return generate_pairs(samples, fixture_taxonomy, config.resolve()["pairs"]["eta"], seed=42)


@pytest.fixture(scope="session")
def trained_net(fixture_pairs, fixture_table):
    """Network trained once on the fixture with its default settings.

    Treated as read-only by every test that uses it.
    """
    cfg = TrainConfig()
    net = fx.make_network(seed=cfg.seed)
    net, history = train(net, fixture_pairs, fixture_table, cfg)
    return net, history
