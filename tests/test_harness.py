"""Verification suite: determinism, coverage, fault visibility."""

import dataclasses
import math
from pathlib import Path

import pytest

from kmln.families import FAMILIES
from kmln.harness import SuiteConfig, run_suite

SMALL = dict(samples=15, rank_instances=6)
DATA = Path(__file__).parent / "data"

DISPUTED_RANK_TAGS = {"KM-2", "KM-4", "KM-5", "KN-1", "KN-2", "ML-1", "ML-2",
                      "KMN-2", "KML-2", "NLK-1", "NLM-1"}
NON_COLLAPSING_RANK2_TAGS = {"K-6", "K-7", "M-5", "M-6", "N-3", "N-4",
                             "L-3", "L-4", "KM-3", "LN-1", "LN-2",
                             "KN-1", "ML-1"}


@pytest.fixture(scope="module")
def full_report():
    return run_suite(SuiteConfig(seed=77, **SMALL))


class TestFullRun:
    def test_check_count(self, full_report):
        # 3 global + 39 closure + 39 rank + 25 restriction + 16*4 variant
        assert len(full_report.findings) == 170

    def test_no_failures(self, full_report):
        assert full_report.failures == ()

    def test_discrepancies_are_exactly_the_known_ones(self, full_report):
        ranks = {f.subject for f in full_report.discrepancies
                 if f.check == "family_rank"}
        rank1 = {f.subject for f in full_report.discrepancies
                 if f.check == "family_rank1"}
        assert ranks == DISPUTED_RANK_TAGS
        assert rank1 == NON_COLLAPSING_RANK2_TAGS
        assert len(full_report.discrepancies) == len(ranks) + len(rank1)

    def test_exit_codes(self, full_report):
        assert full_report.exit_code() == 0
        assert full_report.exit_code(strict=True) == 1

    def test_text_is_deterministic(self, full_report):
        again = run_suite(SuiteConfig(seed=77, **SMALL))
        assert again.to_text() == full_report.to_text()

    def test_text_shape(self, full_report):
        lines = full_report.to_text().splitlines()
        assert lines[0].startswith("suite seed=77")
        assert lines[-1].startswith("summary checks=170")
        assert len(lines) == 172
        for line in lines[1:-1]:
            assert line.startswith("check=")
            assert " status=" in line

    @pytest.mark.parametrize("real", [False, True])
    def test_text_matches_golden(self, real):
        # captured before the checks drew their samples as stacks; the
        # stacks are drawn in the same order, so the bytes must not move
        name = "suite_seed77_small_real.txt" if real else \
            "suite_seed77_small.txt"
        golden = (DATA / name).read_bytes()
        text = run_suite(SuiteConfig(seed=77, real=real, **SMALL)).to_text()
        assert text.encode() == golden

    def test_seed_changes_samples_not_structure(self, full_report):
        other = run_suite(SuiteConfig(seed=78, **SMALL))
        assert [f.check for f in other.findings] == \
            [f.check for f in full_report.findings]
        assert {f.subject for f in other.discrepancies} == \
            {f.subject for f in full_report.discrepancies}


class TestFilters:
    def test_family_filter(self):
        rep = run_suite(SuiteConfig(seed=1, families=("K-5",), **SMALL))
        # 3 global + closure + rank + restriction
        assert len(rep.findings) == 6
        assert {f.subject for f in rep.findings} == {"global", "K-5"}

    def test_group_family_has_no_restriction_check(self):
        rep = run_suite(SuiteConfig(seed=1, families=("KM-1",), **SMALL))
        assert len(rep.findings) == 5

    def test_variant_filter(self):
        rep = run_suite(SuiteConfig(seed=1, variants=("00", "23"), **SMALL))
        assert len(rep.findings) == 3 + 8
        assert {f.subject for f in rep.findings} == {"global", "00", "23"}

    def test_both_filters(self):
        rep = run_suite(SuiteConfig(seed=1, families=("K-1",),
                                    variants=("11",), **SMALL))
        assert len(rep.findings) == 3 + 3 + 4

    def test_unknown_names_rejected(self):
        from kmln.families import UnknownTagError

        with pytest.raises(UnknownTagError):
            run_suite(SuiteConfig(families=("K-99",), **SMALL))
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(variants=("99",), **SMALL))


class TestFaultVisibility:
    def test_broken_closure_fails_the_suite(self, monkeypatch):
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules)
        rules["m0"], rules["m"] = (("1", "k0"),), (("1", "k"),)
        monkeypatch.setitem(FAMILIES, "K-4",
                            dataclasses.replace(fam, rules=rules))
        rep = run_suite(SuiteConfig(seed=3, families=("K-4",), **SMALL))
        assert any(f.check == "family_closure" and f.status == "fail"
                   for f in rep.findings)
        assert rep.exit_code() == 1

    def test_wrong_label_is_a_discrepancy_not_a_failure(self, monkeypatch):
        fam = FAMILIES["K-4"]
        monkeypatch.setitem(FAMILIES, "K-4",
                            dataclasses.replace(fam, claimed_rank=4))
        rep = run_suite(SuiteConfig(seed=3, families=("K-4",), **SMALL))
        assert rep.failures == ()
        assert any(f.check == "family_rank" and f.status == "discrepancy"
                   for f in rep.findings)
        assert rep.exit_code() == 0
        assert rep.exit_code(strict=True) == 1

    def test_wrong_frozen_record_is_a_failure(self, monkeypatch):
        fam = FAMILIES["K-4"]
        monkeypatch.setitem(
            FAMILIES, "K-4",
            dataclasses.replace(fam, claimed_rank=4, generic_rank=4),
        )
        rep = run_suite(SuiteConfig(seed=3, families=("K-4",), **SMALL))
        assert any(f.check == "family_rank" and f.status == "fail"
                   for f in rep.findings)
        assert rep.exit_code() == 1


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(samples=0))
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(tol=-1))
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="tol must be finite and positive"):
                run_suite(SuiteConfig(tol=tol))
        with pytest.raises(ValueError):
            run_suite(SuiteConfig(rank_instances=0))
