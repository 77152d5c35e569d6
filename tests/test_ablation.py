import pytest

from metric_grouper import config
from metric_grouper import fixture as fx
from metric_grouper.ablation import Combo, format_ablation, parse_combos, run_ablation
from metric_grouper.errors import ConfigError
from metric_grouper.evaluation import evaluate_run
from metric_grouper.network import TrainConfig


class TestCombo:
    def test_parse(self):
        combo = Combo.parse("attention:3:trained")
        assert (combo.mode, combo.mlp_layers, combo.train) == ("attention", 3, True)
        assert combo.key == "attention:3:trained"

    def test_parse_list(self):
        combos = parse_combos("ap:0:raw, attention:1:trained")
        assert [c.key for c in combos] == ["ap:0:raw", "attention:1:trained"]

    def test_raw_with_layers_rejected(self):
        with pytest.raises(ConfigError, match="training goes with mlp_layers > 0, raw with 0"):
            Combo.parse("attention:3:raw")

    def test_trained_without_layers_rejected(self):
        with pytest.raises(ConfigError, match="training goes with mlp_layers > 0, raw with 0"):
            Combo.parse("avg:0:trained")

    def test_raw_attention_rejected(self):
        # with no network there is no learned w_a, and phrase_points refuses attention mode
        with pytest.raises(ConfigError, match="attention mode needs training"):
            Combo.parse("attention:0:raw")

    def test_bad_depth_rejected(self):
        with pytest.raises(ConfigError):
            Combo.parse("avg:2:trained")

    def test_bad_flag_rejected(self):
        with pytest.raises(ConfigError):
            Combo.parse("avg:0:frozen")


@pytest.fixture(scope="module")
def ablation_report(request):
    fixture_corpus = fx.make_corpus()
    fixture_table = fx.make_vectors()
    fixture_taxonomy = fx.make_taxonomy()
    from metric_grouper.pairs import generate_pairs, generate_samples

    samples = generate_samples(fixture_corpus)
    pairs = generate_pairs(samples, fixture_taxonomy, config.resolve()["pairs"]["eta"], seed=42)
    report = run_ablation(
        fixture_corpus, fixture_table,
        parse_combos("ap:0:raw,avg:0:raw,min:0:raw,max:0:raw,attention:1:trained,"
                     "attention:3:trained"),
        train_pairs=pairs, train_cfg=TrainConfig(),
        output_dim=fx.FIXTURE_OUTPUT_DIM, hidden_dims=list(fx.FIXTURE_HIDDEN_DIMS),
        runs=5, seed=100)
    return report


class TestRunAblation:
    def test_reference_row_improvement_is_zero(self, ablation_report):
        ref = ablation_report["combos"]["ap:0:raw"]
        assert ref["purity_improvement_pct"] == 0.0
        assert ref["entropy_improvement_pct"] == 0.0

    @pytest.mark.parametrize("method", ["ap", "avg", "min", "max"])
    def test_raw_row_matches_plain_baseline(self, ablation_report, method):
        plain = evaluate_run(fx.make_corpus(), fx.make_vectors(), [method],
                             k=2, runs=5, seed=100)
        row = ablation_report["combos"][f"{method}:0:raw"]
        assert row["purity_mean"] == plain["methods"][method]["purity_mean"]
        assert row["entropy_mean"] == plain["methods"][method]["entropy_mean"]

    def test_improvement_arithmetic(self, ablation_report):
        ref = ablation_report["combos"]["ap:0:raw"]
        for row in ablation_report["combos"].values():
            expected_p = (row["purity_mean"] - ref["purity_mean"]) / ref["purity_mean"] * 100
            expected_e = (ref["entropy_mean"] - row["entropy_mean"]) / ref["entropy_mean"] * 100
            assert row["purity_improvement_pct"] == pytest.approx(expected_p)
            assert row["entropy_improvement_pct"] == pytest.approx(expected_e)

    def test_depth_ordering_on_fixture(self, ablation_report):
        combos = ablation_report["combos"]
        full = combos["attention:3:trained"]["purity_mean"]
        linear = combos["attention:1:trained"]["purity_mean"]
        ap = combos["ap:0:raw"]["purity_mean"]
        assert full >= linear >= ap

    def test_reference_auto_added(self):
        corpus = fx.make_corpus()
        table = fx.make_vectors()
        report = run_ablation(corpus, table, parse_combos("avg:0:raw"), runs=2, seed=0)
        assert "ap:0:raw" in report["combos"]

    def test_duplicate_combos_rejected(self):
        corpus = fx.make_corpus()
        table = fx.make_vectors()
        with pytest.raises(ConfigError, match="duplicate"):
            run_ablation(corpus, table, parse_combos("ap:0:raw,ap:0:raw"), runs=1, seed=0)

    def test_formatted_table(self, ablation_report):
        text = format_ablation(ablation_report)
        assert "ap:0:raw" in text
        assert "attention:3:trained" in text
