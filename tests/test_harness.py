import json
import pathlib

import pytest

from qibg import decompose as dc
from qibg import harness as hn

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_config_validation():
    good = hn.CampaignConfig(3, (5, 10), 2, 1)
    assert good.validate() is good
    with pytest.raises(ValueError):
        hn.CampaignConfig(3, (5, 10), 0, 1).validate()
    with pytest.raises(ValueError):
        hn.CampaignConfig(3, (), 1, 1).validate()
    with pytest.raises(ValueError):
        hn.CampaignConfig(3, (10, 5), 1, 1).validate()
    with pytest.raises(ValueError):
        hn.CampaignConfig(3, (5, 5), 1, 1).validate()
    with pytest.raises(ValueError):
        hn.CampaignConfig(1, (5,), 1, 1).validate()
    with pytest.raises(ValueError):
        hn.CampaignConfig(3, (5,), 1, 1, strategy="zigzag").validate()


def test_identity_only_campaign():
    rep = hn.run_campaign(hn.CampaignConfig(2, (0,), 1, 9))
    assert rep.violations == 0
    assert rep.stable
    assert rep.factor_count_histogram == ((0, 1),)
    assert all(s.ratio == 0.0 for s in rep.samples)


def test_campaign_deterministic_bytes():
    cfg = hn.CampaignConfig(3, (5, 10), 10, 4)
    a = hn.report_to_json_bytes(hn.run_campaign(cfg))
    b = hn.report_to_json_bytes(hn.run_campaign(cfg))
    assert a == b


def test_campaign_golden_file():
    cfg = hn.CampaignConfig(3, (5, 10, 20, 40), 100, 7)
    got = hn.report_to_json_bytes(hn.run_campaign(cfg))
    assert got == (GOLDEN / "campaign_n3_seed7.json").read_bytes()


def test_campaign_zero_violations():
    for n in (2, 3, 4):
        rep = hn.run_campaign(hn.CampaignConfig(n, (5, 15, 30), 20, 11))
        assert rep.violations == 0


def test_clockwise_campaign_runs():
    rep = hn.run_campaign(hn.CampaignConfig(3, (5, 10), 10, 2,
                                            strategy=dc.CLOCKWISE))
    assert rep.violations == 0
    assert len(rep.samples) == 20


def test_campaign_past_the_float_norm_ceiling():
    rep = hn.run_campaign(hn.CampaignConfig(33, (3,), 1, 5))
    assert len(rep.samples) == 1 and rep.violations == 0


def test_mutated_verifier_aborts_campaign(monkeypatch):
    real_verify = dc.verify

    def broken(matrix, fac):
        rep = real_verify(matrix, fac)
        object.__setattr__(rep, "product_ok", False)
        return rep

    monkeypatch.setattr(dc, "verify", broken)
    with pytest.raises(hn.CampaignError) as err:
        hn.run_campaign(hn.CampaignConfig(3, (4,), 2, 5))
    assert err.value.sample_json["n"] == 3
    assert "entries" in err.value.sample_json


def test_stability_rule():
    assert hn._stability(((5, 0.0),))
    assert hn._stability(((5, 1.0), (10, 1.05)))
    assert not hn._stability(((5, 1.0), (10, 1.2)))
    assert hn._stability(((5, 0.0), (10, 0.0)))
    assert not hn._stability(((5, 0.0), (10, 0.5)))
    assert hn._stability(((5, 2.0), (10, 1.0), (20, 2.1)))


def test_csv_format():
    rep = hn.run_campaign(hn.CampaignConfig(2, (0, 3), 2, 1))
    text = hn.report_to_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "length,log_norm,factor_count,max_factor_log_norm,ratio"
    assert len(lines) == 1 + len(rep.samples)


def test_config_json_round_trip():
    cfg = hn.CampaignConfig(4, (3, 6, 9), 7, 13, strategy=dc.CLOCKWISE)
    back = hn.config_from_json(json.loads(json.dumps(hn.config_to_json(cfg))))
    assert back == cfg
    with pytest.raises(ValueError):
        hn.config_from_json({"n": 3})
    with pytest.raises(ValueError):
        hn.config_from_json({"n": 3, "word_lengths": [5], "samples_per_length": 0,
                             "seed": 1})


def test_compare_strategies_n2_identical():
    rep = hn.compare_strategies(hn.CampaignConfig(2, (5, 10), 15, 3))
    assert rep.all_verified
    assert rep.total_reannihilations == 0
    for s in rep.samples:
        assert s.column_major_count == s.clockwise_count
        assert s.column_major_ratio == s.clockwise_ratio


def test_compare_strategies_n3():
    rep = hn.compare_strategies(hn.CampaignConfig(3, (5, 15), 15, 6))
    assert rep.all_verified
    assert rep.total_reannihilations == 0
    obj = hn.comparison_to_json(rep)
    assert obj["total_reannihilations"] == 0
    assert len(obj["samples"]) == 30


def test_threads_env_cap(monkeypatch):
    cfg = hn.CampaignConfig(3, (5, 10), 8, 4)
    base = hn.report_to_json_bytes(hn.run_campaign(cfg))
    monkeypatch.setenv(hn.THREADS_ENV, "3")
    threaded = hn.report_to_json_bytes(hn.run_campaign(cfg))
    assert base == threaded
    monkeypatch.setenv(hn.THREADS_ENV, "0")
    with pytest.raises(ValueError):
        hn.run_campaign(cfg)
    monkeypatch.setenv(hn.THREADS_ENV, "many")
    with pytest.raises(ValueError):
        hn.run_campaign(cfg)
