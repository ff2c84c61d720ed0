"""Certificates and the theorem verification pipelines."""
import json

import pytest

import codebounds.bounds as bounds
import codebounds.pipelines as pipelines
from codebounds.pipelines import (
    CertInput,
    CertStep,
    Certificate,
    IrregularPairAudit,
    PIPELINES,
    f_eval,
    profile_tuples,
    run_pipeline,
    verify_a3_16_11,
    verify_a4_9_6,
    verify_a5_8_6,
    verify_divisibility_family,
    verify_inequality_17,
    write_certificate,
)


def test_f_eval_anchor_values():
    assert f_eval(0, 0) == 0
    assert f_eval(1, 0) == 108
    assert f_eval(0, 1) == 55
    with pytest.raises(ValueError):
        f_eval(-1, 0)


def test_f_positive_on_feasible_profiles():
    for x in range(5):
        for y in range((65 - 15 * x) // 14 + 1):
            if (x, y) != (0, 0):
                assert f_eval(x, y) > 0


def test_profile_tuples():
    profs = profile_tuples()
    assert len(profs) == 30
    assert len(set(profs)) == 30
    for p in profs:
        assert len(p) == 15
        assert sum(p) == 5
        assert sum((k + 1) * c for k, c in enumerate(p)) == 65
        assert all(c == 0 for c in p[:4])
    balanced = tuple(5 if k == 12 else 0 for k in range(15))
    assert balanced in profs
    assert profs == tuple(sorted(profs))


def test_inequality_17_step():
    step = verify_inequality_17(step_id=5)
    assert step.id == 5 and step.op == "inequality-17" and step.ok
    assert step.data["profiles"] == 30
    assert step.data["ordered_pairs"] == 900
    assert step.data["applicable_pairs"] == 491
    assert step.data["violations"] == []
    assert step.data["min_slack"] == 7


def test_irregular_pair_audit_properties():
    a = tuple([0] * 13 + [0, 5])
    audit = IrregularPairAudit(5, 0, 10, 3, a, a)
    assert audit.ok and audit.slack == 7
    assert not IrregularPairAudit(5, 0, 3, 3, a, a).ok


def test_certificate_invariants():
    good = CertStep(1, "x", "op", {}, True)
    bad = CertStep(2, "y", "op", {}, False)
    env = {"generator": "test"}
    with pytest.raises(ValueError):
        Certificate("t", (), (good, bad), "verified", env)
    with pytest.raises(ValueError):
        Certificate("t", (), (good,), "proven", env)
    cert = Certificate("t", (), (good, bad), "refuted", env)
    assert not cert.ok and cert.exit_code == 1
    assert Certificate("t", (), (good,), "verified", env).exit_code == 0
    assert Certificate("t", (), (bad,), "inapplicable", env).exit_code == 2


def test_a3_16_11_verifies():
    cert = verify_a3_16_11()
    assert cert.verdict == "verified" and cert.exit_code == 0
    assert cert.inputs[0].name == "A_3(15,11)" and cert.inputs[0].value == 10
    s2 = cert.steps[1]
    assert s2.data["L"] == 180 and s2.data["R"] == 180 and s2.data["budget"] == 0
    s3 = cert.steps[2]
    assert s3.data["total_ones_by_columns"] == 160
    assert s3.data["columns_residue_mod_5"] == 0
    assert s3.data["words_residue_mod_5"] == 1
    assert s3.data["bound"] == 29


@pytest.mark.parametrize(
    "q, n, d, verify",
    [(5, 7, 6, verify_a5_8_6), (3, 15, 11, verify_a3_16_11), (4, 8, 6, verify_a4_9_6)],
)
def test_a3_registry_miss_is_inapplicable(monkeypatch, q, n, d, verify):
    monkeypatch.delitem(bounds.KNOWN_VALUES, (q, n, d))
    cert = verify()
    assert cert.verdict == "inapplicable" and cert.exit_code == 2
    assert not cert.steps[0].ok


def test_divisibility_family_verifies():
    cert = verify_divisibility_family()
    assert cert.verdict == "verified"
    s1, s2, s3, s4 = cert.steps
    assert s1.data["bound"] == 70 and s1.data["m"] == 3 and s1.data["r"] == 4
    assert [4, -98] in s1.data["phi"]
    assert s2.data["bound"] == 60 and s2.data["m"] == 4 and s2.data["r"] == 3
    assert [3, -16] in s2.data["phi"]
    derived = {r["name"]: r["bound"] for r in s3.data["derived"]}
    assert derived["A_5(11,6)"] == 8125 and derived["A_4(12,8)"] == 240
    assert s4.data["match"]
    column = [r["bound"] for r in s4.data["rows"]]
    assert column == [65, 325, 1625, 8125, 120, 480, 60, 240, 29]


def test_family_refuted_on_wrong_claim(monkeypatch):
    wrong = tuple(
        (name, claimed + (name == "A_4(12,8)"), via)
        for name, claimed, via in pipelines.NEW_BOUNDS_CLAIM
    )
    monkeypatch.setattr(pipelines, "NEW_BOUNDS_CLAIM", wrong)
    cert = verify_divisibility_family()
    assert cert.verdict == "refuted" and cert.exit_code == 1
    assert not cert.steps[3].ok


def test_a4_9_6_verifies():
    cert = verify_a4_9_6()
    assert cert.verdict == "verified"
    s1 = cert.steps[0]
    assert s1.data["gh_ok"] and s1.data["net_axioms_ok"] and s1.data["gram_ok"]
    assert (s1.data["q"], s1.data["n"], s1.data["size"], s1.data["min_distance"]) == (
        4,
        8,
        32,
        6,
    )
    assert cert.steps[1].data["unique"]
    s3 = cert.steps[2]
    assert s3.data["classes"] == 1 and s3.data["extension_closes"]
    s4 = cert.steps[3]
    assert s4.data["count_size_32"] == 0
    assert s4.data["counts_size_31"] == [25]
    assert s4.data["max_count"] == 25
    assert s4.data["claim_ok"] and s4.data["sufficient_ok"] and not s4.data["divergence"]
    s5 = cert.steps[4]
    assert all(case["contradiction"] for case in s5.data["cases"])
    assert {case["block"]: case["outside_words"] for case in s5.data["cases"]} == {
        31: 89,
        32: 88,
    }
    assert s5.data["bound"] == 120


def test_a4_json_reproducible():
    first = verify_a4_9_6().to_json()
    second = verify_a4_9_6().to_json()
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "verified"
    assert [s["id"] for s in payload["steps"]] == [1, 2, 3, 4, 5]


def test_write_certificate(tmp_path):
    cert = verify_a3_16_11()
    jpath, tpath = write_certificate(cert, tmp_path)
    assert jpath.endswith("a3_16_11.cert.json") and tpath.endswith("a3_16_11.cert.txt")
    payload = json.loads((tmp_path / "a3_16_11.cert.json").read_text())
    assert payload["theorem_id"] == "a3_16_11"
    assert payload["verdict"] == "verified"
    assert payload["inputs"][0]["provenance"]
    assert set(payload["environment"]) >= {"generator", "workers", "node_budget"}
    text = (tmp_path / "a3_16_11.cert.txt").read_text()
    assert "certificate a3_16_11: VERIFIED" in text
    assert "bound" in text


def test_run_pipeline_dispatch():
    assert set(PIPELINES) == {"a5_8_6", "a3_16_11", "a4_9_6", "divisibility_family"}
    cert = run_pipeline("a3_16_11")
    assert cert.theorem_id == "a3_16_11"
    with pytest.raises(KeyError):
        run_pipeline("a9_9_9")
