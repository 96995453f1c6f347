import json
from pathlib import Path

import numpy as np
import pytest

from wittenlab import constants
from wittenlab.errors import MissingConstants


def test_levels_strictly_increasing(consts):
    e = np.array(consts["e"])
    assert e[0] > 0
    assert np.all(np.diff(e) > 0)
    assert len(e) == 8


def test_oracle_self_report(consts):
    assert consts["oracle"]["gap"] <= 1e-8
    assert consts["oracle"]["basis"] == constants.BASIS_SIZE
    assert consts["oracle"]["omega"] == constants.OMEGA


def test_gap_stable_under_doubling(consts, consts_doubled):
    g1 = (consts["e"][1] - consts["e"][0]) / consts["e"][0]
    e2 = consts_doubled["e"]
    g2 = (e2[1] - e2[0]) / e2[0]
    assert abs(g1 - g2) / g1 <= 1e-8


def test_write_idempotent(tmp_path, consts):
    # one fresh run, compared byte for byte with the session's own run
    path = tmp_path / "c1.json"
    constants.write_constants(path)
    assert path.read_text() == json.dumps(consts, indent=2, sort_keys=True) + "\n"


def test_committed_table_matches_oracle(consts):
    committed = constants.load_constants(
        Path(__file__).resolve().parents[1] / constants.DEFAULT_FILENAME)
    np.testing.assert_allclose(committed["e"], consts["e"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(committed["xi1_0"], consts["xi1_0"], rtol=1e-12, atol=0)
    assert committed["oracle"]["basis"] == consts["oracle"]["basis"]
    assert committed["oracle"]["omega"] == consts["oracle"]["omega"]
    assert committed["oracle"]["gap"] <= 1e-8


def test_env_override(tmp_path, monkeypatch, consts):
    path = tmp_path / "alt.json"
    data = dict(consts)
    data["xi1_0"] = 123.0
    path.write_text(json.dumps(data))
    monkeypatch.setenv(constants.ENV_VAR, str(path))
    loaded = constants.load_constants()
    assert loaded["xi1_0"] == 123.0


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"e": [1.0]}))
    with pytest.raises(MissingConstants):
        constants.load_constants(path)


def test_missing_file_without_compute(tmp_path):
    with pytest.raises(MissingConstants):
        constants.load_constants(tmp_path / "nope.json")


def test_default_lookup_computes_only_when_no_file_exists(tmp_path, monkeypatch, consts):
    monkeypatch.delenv(constants.ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    repo_copy = json.loads(constants._REPO_COPY.read_text())
    assert constants.load_constants() == repo_copy
    monkeypatch.setattr(constants, "_REPO_COPY", tmp_path / "gone.json")
    assert constants.load_constants() == consts


def test_env_var_naming_a_missing_file_raises(tmp_path, monkeypatch):
    # a mistyped path is reported, not replaced by the repository copy
    monkeypatch.setenv(constants.ENV_VAR, str(tmp_path / "nope.json"))
    with pytest.raises(MissingConstants, match="nope.json"):
        constants.load_constants()

