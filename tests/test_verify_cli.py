"""Suite verifiers, report schema, CLI contract, and determinism."""

import functools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import S3, monic, multidegree_components, permute_letters
from tensorcert.cli import main, run_suite
from tensorcert.groebner import DEFAULT_STEP_BUDGET
from tensorcert.report import CertReport, emit_report
from tensorcert.verify import (
    gen_set_case,
    knutson_case,
    oracle_equivalence_case,
    squeeze_case,
    tensoriality_case,
    unit_not_tensorial_case,
)
from tensorcert.fleet import build_fleet
from tensorcert.ideals import candidate_basis
from tensorcert.parse import render_polynomial
from tensorcert.xyz import Signature, letter_block_order, xyz_ring

BUDGET = DEFAULT_STEP_BUDGET


class TestVerifiers:
    def test_j_ideal_generator_ordering(self):
        # the division schedule depends on this exact list order
        from tensorcert.parse import parse_polynomial
        from tensorcert.verify import j_ideal_presentation
        from tensorcert.xyz import xyz_ring

        ring = xyz_ring(2, with_t=True)
        pres = j_ideal_presentation(Signature((1, -1)))
        expected = [
            "t*(z1 - x1)*(x1 - y1)",
            "t*(z1 - x1)*(x2 + y2)",
            "t*(z2 + x2)*(x1 - y1)",
            "t*(z2 + x2)*(x2 + y2)",
            "(1-t)*(y1 - z1)",
            "(1-t)*(y2 + z2)",
        ]
        assert list(pres.generators) == [parse_polynomial(t, ring) for t in expected]

    def test_gen_set_passes_small(self):
        for sig in Signature.sweep(2) + [Signature((-1,))]:
            case = gen_set_case(sig, BUDGET)
            assert case.status == "pass", case.witnesses
            assert case.details["structural_claims"]
            assert case.details["candidates_in_intersection"]
            assert case.details["intersection_in_candidates"]

    def test_gen_set_budget_exhaustion_is_reported(self):
        case = gen_set_case(Signature((1, 1)), budget_limit=5)
        assert case.status == "budget"

    def test_knutson_passes_small(self):
        for sig in Signature.sweep(2):
            case = knutson_case(sig, BUDGET)
            assert case.status == "pass", case.witnesses

    def test_squeeze_passes_small(self):
        for n in (1, 2):
            case = squeeze_case(n, BUDGET)
            assert case.status == "pass", case.witnesses

    def test_oracle_equivalence_small(self):
        case = oracle_equivalence_case(Signature((-1,)), BUDGET)
        assert case.status == "pass", case.witnesses
        assert case.details["agreements"] == case.details["samples"]

    def test_oracle_case_is_deterministic(self):
        one = oracle_equivalence_case(Signature((1,)), BUDGET)
        two = oracle_equivalence_case(Signature((1,)), BUDGET)
        one.wall_time_ms = two.wall_time_ms = 0
        assert one == two

    def test_s3_invariance_small(self):
        # the intersection is S3-invariant and split by the multigrading
        from tensorcert.groebner import membership
        from tensorcert.verify import tensorial_ideal_basis

        for sig in (Signature((1,)), Signature((1, -1))):
            basis = tensorial_ideal_basis(sig)
            for g in basis.elements:
                for name, sigma in S3.items():
                    assert membership(permute_letters(g, sigma), basis), (sig, name, g)
                for component in multidegree_components(g).values():
                    assert membership(component, basis), (sig, component)

    def test_gen_set_names_missing_quadratic(self, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.ideals import CandidateBasis, candidate_basis
        from tensorcert.parse import parse_polynomial
        from tensorcert.xyz import xyz_ring

        def torsions_only(sig, ring=None):
            return CandidateBasis(candidate_basis(sig, ring).torsion_gens, ())

        monkeypatch.setattr(verify, "candidate_basis", torsions_only)
        case = gen_set_case(Signature((1, 1)), BUDGET)
        assert case.status == "fail"
        assert case.details["candidates_in_intersection"]
        assert not case.details["intersection_in_candidates"]
        (witness,) = case.witnesses
        assert not parse_polynomial(witness, xyz_ring(2)).is_zero()

    def test_gen_set_names_foreign_candidate(self, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.ideals import CandidateBasis, candidate_basis

        def with_x1(sig, ring=None):
            cand = candidate_basis(sig, ring)
            extra = (cand.torsion_gens[0].ring.var("x1"),)
            return CandidateBasis(cand.torsion_gens, cand.quadratic_gens + extra)

        monkeypatch.setattr(verify, "candidate_basis", with_x1)
        case = gen_set_case(Signature((1, 1)), BUDGET)
        assert case.status == "fail"
        assert not case.details["candidates_in_intersection"]
        assert case.details["intersection_in_candidates"]
        assert case.witnesses == ["x1"]

    def test_tensoriality_case_small(self):
        fleet = {e.name: e for e in build_fleet()}
        case = tensoriality_case(fleet["diag-skew-n1"])
        assert case.status == "pass", case.witnesses
        assert case.details["candidate_members_tensorial"]

    def test_unit_case(self):
        unit = next(e for e in build_fleet() if e.name == "diag-skew-n1")
        assert unit_not_tensorial_case(unit).status == "pass"


class TestFailurePaths:
    """Each verifier's failing and budget paths pin status, flags and witnesses."""

    def test_knutson_names_wrong_splitting_lead(self, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.xyz import xyz_ring

        monkeypatch.setattr(verify, "knutson_F", lambda sig: xyz_ring(sig.n).var("x1"))
        case = knutson_case(Signature((1,)), BUDGET)
        assert case.status == "fail"
        assert [k for k, v in case.details.items() if not v] == ["splitting_lead_is_all_vars"]
        assert case.witnesses == ["x1"]

    def test_squeeze_names_dropped_torsion_lead(self, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.ideals import CandidateBasis, candidate_basis

        def drop_first_torsion(sig, ring=None):
            cand = candidate_basis(sig, ring)
            return CandidateBasis(cand.torsion_gens[1:], cand.quadratic_gens)

        monkeypatch.setattr(verify, "candidate_basis", drop_first_torsion)
        case = squeeze_case(2, BUDGET)
        assert case.status == "fail"
        failed = [k for k, v in case.details.items() if not v]
        assert failed == ["candidate_initial_ideal_matches_intersection"]
        assert case.witnesses == ["x1^2*y1"]

    def test_oracle_equivalence_names_disagreeing_sample(self, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.ideals import is_universally_tensorial_linear

        first = candidate_basis(Signature((1,))).members[0]

        def wrong_on_first(poly, sig):
            return is_universally_tensorial_linear(poly, sig) != (poly == first)

        monkeypatch.setattr(verify, "is_universally_tensorial_linear", wrong_on_first)
        case = oracle_equivalence_case(Signature((1,)), BUDGET)
        assert case.status == "fail"
        # the pool starts with the candidate members; two random
        # combinations happen to equal the first one as well
        witness = "-x1^2*y1 + x1^2*z1 + x1*y1^2 - x1*z1^2 - y1^2*z1 + y1*z1^2"
        assert case.witnesses == [witness] * 3
        assert case.details == {
            "disagreements": [{"linear": False, "variety": True, "membership": True}] * 3,
            "samples": 501,
            "agreements": 498,
            "candidate_members_all_true": False,
        }

    def test_tensoriality_names_non_tensorial_positions(self, monkeypatch):
        import tensorcert.verify as verify

        monkeypatch.setattr(verify, "tensoriality_check", lambda poly, family: False)
        fleet = {e.name: e for e in build_fleet()}
        case = tensoriality_case(fleet["diag-skew-n1"])
        assert case.status == "fail"
        assert case.details == {"bridge_checks": 12, "candidate_members_tensorial": False}
        assert case.witnesses == ["non-tensorial candidate positions [0]"]

    def test_unit_case_fails_when_unit_is_tensorial(self, monkeypatch):
        import tensorcert.verify as verify

        monkeypatch.setattr(verify, "tensoriality_check", lambda poly, family: True)
        unit = next(e for e in build_fleet() if e.name == "diag-skew-n1")
        case = unit_not_tensorial_case(unit)
        assert (case.status, case.witnesses, case.details) == ("fail", [], {})

    @pytest.mark.parametrize(
        "run",
        [
            lambda: knutson_case(Signature((1,)), budget_limit=1),
            lambda: oracle_equivalence_case(Signature((1,)), budget_limit=1),
            # squeeze at N = 1 takes no reduction step at all
            lambda: squeeze_case(2, budget_limit=1),
        ],
        ids=["knutson", "oracle-equiv", "squeeze"],
    )
    def test_budget_of_one_step(self, run):
        case = run()
        assert (case.status, case.witnesses, case.details) == ("budget", [], {})


@pytest.fixture
def cold_orbit_memo(monkeypatch):
    """oracle-equiv's orbit-basis memo, empty for this test only."""
    import tensorcert.verify as verify

    monkeypatch.setattr(verify, "_ORBIT_BASES", {})
    return verify._ORBIT_BASES


def _outcome(case):
    return case.status, case.details, case.witnesses


class TestOrbitMemo:
    @pytest.mark.parametrize(
        "text, other, budget",
        [
            ("-+", "+-", BUDGET),
            ("+", "+", 1),
            # the orbit's representative +- costs 178 steps: one step short
            # of it, cold and warm runs both run out
            ("-+", "+-", 177),
            # the basis and the samples take 178 + 2,283 steps, the samples
            # alone fit: a hit that charged nothing would pass
            ("-+", "+-", 2_400),
            ("-++", "+-+", BUDGET),
        ],
        ids=["default", "one-step", "below-representative", "basis-and-samples", "three-cycle"],
    )
    def test_case_does_not_depend_on_the_memo(self, cold_orbit_memo, text, other, budget):
        sig = Signature.parse(text)
        cold = oracle_equivalence_case(sig, budget)
        cold_orbit_memo.clear()
        oracle_equivalence_case(Signature.parse(other), BUDGET)
        assert len(cold_orbit_memo) == 1
        warm = oracle_equivalence_case(sig, budget)
        assert _outcome(warm) == _outcome(cold)
        if budget < BUDGET:
            assert cold.status == "budget"

    def test_memo_hit_builds_no_basis(self, cold_orbit_memo, monkeypatch):
        import tensorcert.verify as verify

        built = []
        real = verify.tensorial_ideal_basis

        def counted(sig, budget=None):
            built.append(str(sig))
            return real(sig, budget)

        monkeypatch.setattr(verify, "tensorial_ideal_basis", counted)
        for text in ("+-+", "-++", "++-", "--+"):
            assert oracle_equivalence_case(Signature.parse(text), BUDGET).status == "pass"
        assert built == ["++-", "+--"]

    def test_witness_keeps_the_index_descending_order(self, cold_orbit_memo, monkeypatch):
        import tensorcert.verify as verify
        from tensorcert.ideals import is_universally_tensorial_linear
        from tensorcert.parse import render_polynomial
        from tensorcert.xyz import index_desc_order

        sig = Signature.parse("-+")
        target = candidate_basis(sig).members[1]  # uses both indices

        def wrong_on_target(poly, sig):
            return is_universally_tensorial_linear(poly, sig) != (poly == target)

        monkeypatch.setattr(verify, "is_universally_tensorial_linear", wrong_on_target)
        case = oracle_equivalence_case(sig, BUDGET)
        assert case.status == "fail"
        assert case.witnesses[0] == render_polynomial(target, index_desc_order(2))

    def test_sweep_does_not_depend_on_signature_order(self, cold_orbit_memo):
        # a budget that passes some N = 3 cases and exhausts others: the
        # N = 3 cases need 5,860 (-++) to 9,469 (---) steps
        sigs = [sig for n in (1, 2, 3) for sig in Signature.sweep(n)]
        reports = []
        for order in (sigs, sigs[::-1]):
            cold_orbit_memo.clear()
            report = run_suite("oracle-equiv", 3, order, step_budget=6_600)
            report.signatures = "all"
            for case in report.cases:
                case.wall_time_ms = 0
            reports.append(emit_report(report, "json"))
        assert reports[0] == reports[1]
        statuses = {case["status"] for case in json.loads(reports[0])["cases"]}
        assert statuses == {"pass", "budget"}

    def test_sweep_membership_steps_are_pinned(self, monkeypatch):
        # the draws of random_polynomial and the orbit basis's order (x ranked
        # last) both show in these two counts
        import tensorcert.verify as verify

        real = verify.membership
        steps = members = 0

        def counted(f, basis, budget):
            nonlocal steps, members
            before = budget.used
            member = real(f, basis, budget)
            steps += budget.used - before
            members += member
            return member

        monkeypatch.setattr(verify, "membership", counted)
        report = run_suite("oracle-equiv", 3)
        assert report.exit_code() == 0
        assert (steps, members) == (59_039, 3_936)


class TestSelection:
    """``--sig`` selects the cases of every suite, and a case's record does
    not depend on which other cases run beside it."""

    DATA = pathlib.Path(__file__).parent / "data"

    def golden_cases(self, name):
        return json.loads((self.DATA / name).read_text(encoding="utf-8"))["cases"]

    def test_squeeze_runs_at_each_selected_all_plus_signature(self):
        report = run_suite("squeeze", 3, [Signature((1, 1))])
        assert [case.case_id for case in report.cases] == ["squeeze/N2"]

    def test_tensoriality_runs_on_the_selected_families_and_the_unit_case(self):
        report = run_suite("tensoriality", 1, [Signature((-1,))])
        minus = [e.name for e in build_fleet() if str(e.family.signature) == "-"]
        assert len(minus) == 5
        assert sorted(case.case_id for case in report.cases) == sorted(
            [f"tensoriality/{name}" for name in minus] + ["tensoriality/unit-fails"]
        )
        assert {case.signature for case in report.cases} == {"-"}

    def test_a_selection_without_cases_is_a_usage_error(self, capsys):
        argv = ["certify", "--suite", "squeeze", "--n", "2", "--sig", "+-"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: no case matches --sig\n"
        assert captured.out == ""

    def test_selected_records_equal_their_full_sweep_records(self):
        report = run_suite("all", 2, [Signature((1, -1))])
        golden = self.golden_cases("report-all-n2.json")
        assert report.signatures == "+-"
        assert sorted(case.case_id for case in report.cases) == [
            case["case_id"] for case in golden if case["signature"] == "+-"
        ]
        for case in report.cases:
            case.wall_time_ms = 0
            assert case.to_dict() in golden, case.case_id

    def test_goldens_agree_record_by_record(self):
        # a record depends neither on N_max, nor on the suite mix, nor on
        # --sig, nor on --workers: the N = 4 golden is a two-worker run
        for n in (1, 2, 3):
            larger = self.golden_cases(f"report-all-n{n + 1}.json")
            for case in self.golden_cases(f"report-all-n{n}.json"):
                assert case in larger, (n, case["case_id"])
        all_n2 = self.golden_cases("report-all-n2.json")
        for case in self.golden_cases("report-all-n2-sig.json"):
            assert case in all_n2, case["case_id"]
        all_n3 = self.golden_cases("report-all-n3.json")
        tensoriality = [case for case in all_n3 if case["suite"] == "tensoriality"]
        assert self.golden_cases("report-tensoriality-n3.json") == tensoriality


class TestReport:
    def build(self):
        return run_suite("knutson", 1)

    def test_exit_code_pass(self):
        assert self.build().exit_code() == 0

    def test_json_roundtrip_modulo_timing(self):
        report = self.build()
        assert json.loads(emit_report(report, "json")) == report.to_dict()

    def test_empty_report_is_valid_json(self):
        report = CertReport(
            suite="gen-set",
            n_max=1,
            signatures="all",
            step_budget=BUDGET,
            workers=1,
        )
        data = json.loads(emit_report(report, "json"))
        assert data["cases"] == []
        assert data["summary"]["total"] == 0

    def test_text_format_mentions_every_case(self):
        report = self.build()
        text = emit_report(report, "text")
        for case in report.cases:
            assert case.case_id in text

    def test_determinism_modulo_timing(self):
        first, second = self.build(), self.build()
        for case in first.cases + second.cases:
            case.wall_time_ms = 0
        assert first.to_dict() == second.to_dict()

    def test_error_case_has_its_mark_count_and_exit_code(self):
        from tensorcert.verify import CaseResult

        report = self.build()
        plain = emit_report(report, "text")
        assert "ERROR" not in plain and "error" not in plain
        report.cases.append(
            CaseResult("knutson/N1/demo", "knutson", "demo", 1, "+", "error", ["ValueError: demo"])
        )
        text = emit_report(report, "text")
        assert re.search(r"knutson/N1/demo\s+ERROR", text)
        assert "      witness: ValueError: demo" in text
        assert text.endswith("3 cases: 2 pass, 0 fail, 0 budget-exhausted, 1 error")
        assert report.summary() == {"pass": 2, "fail": 0, "budget": 0, "error": 1, "total": 3}
        assert report.exit_code() == 4

    def test_failing_case_witnesses_parse(self):
        from tensorcert.parse import parse_polynomial
        from tensorcert.verify import CaseResult
        from tensorcert.xyz import xyz_ring

        case = CaseResult(
            case_id="demo",
            suite="gen-set",
            claim="demo",
            n=1,
            signature="+",
            status="fail",
            witnesses=["x1^2*y1 - x1^2*z1"],
        )
        report = CertReport(
            suite="gen-set",
            n_max=1,
            signatures="all",
            step_budget=BUDGET,
            workers=1,
            cases=[case],
        )
        parsed = json.loads(emit_report(report, "json"))
        witness = parsed["cases"][0]["witnesses"][0]
        assert not parse_polynomial(witness, xyz_ring(1)).is_zero()
        assert report.exit_code() == 1


class TestCli:
    def test_certify_knutson_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "certify",
                "--suite",
                "knutson",
                "--n",
                "1",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"]["pass"] == data["summary"]["total"] == 2
        printed = json.loads(capsys.readouterr().out)
        assert printed["suite"] == "knutson"

    def test_gen_set_sweep_has_fourteen_cases(self, capsys):
        code = main(["certify", "--suite", "gen-set", "--n", "3", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["total"] == 2 + 4 + 8
        assert data["summary"]["pass"] == 14

    def test_gen_set_explicit_signature(self, capsys):
        code = main(["certify", "--suite", "gen-set", "--n", "1", "--sig", "-", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["total"] == 1
        assert data["cases"][0]["case_id"] == "gen-set/N1/-"

    def test_repeated_signature_runs_once(self, capsys):
        argv = ["certify", "--suite", "knutson", "--n", "1", "--sig", "+", "--sig", "+"]
        assert main(argv + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [case["case_id"] for case in data["cases"]] == ["knutson/N1/+"]
        assert data["signatures"] == "+"

    def test_bad_signature_is_config_error(self, capsys):
        assert main(["certify", "--suite", "gen-set", "--n", "1", "--sig", "+?"]) == 3

    def test_sig_longer_than_n_is_config_error(self):
        assert main(["certify", "--suite", "gen-set", "--n", "1", "--sig", "++"]) == 3

    def test_gens_bad_signature_is_config_error(self, capsys):
        assert main(["gens", "--n", "1", "--sig", "+?"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_gb_bad_order_is_config_error(self, tmp_path, capsys):
        ideal = tmp_path / "ideal.txt"
        ideal.write_text("x1 - y1\n")
        assert main(["gb", "--ideal", str(ideal), "--order", "foo"]) == 3
        # the ring is x1, y1, z1, so z1 is left unranked
        assert main(["gb", "--ideal", str(ideal), "--order", "x1,y1"]) == 3
        ideal.write_text("x1 - x1\n")
        assert main(["gb", "--ideal", str(ideal)]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_internal_error_exits_four(self, monkeypatch, capsys):
        import tensorcert.cli as cli

        def broken(sig, budget):
            raise ValueError("an engine fault")

        monkeypatch.setattr(cli, "knutson_case", broken)
        assert main(["certify", "--suite", "knutson", "--n", "1"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: an engine fault" in err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_case_is_an_error_and_the_sweep_goes_on(
        self, workers, monkeypatch, capsys, tmp_path
    ):
        import multiprocessing

        import tensorcert.verify as verify

        if workers > 1 and multiprocessing.get_context().get_start_method() != "fork":
            pytest.skip("only forked workers inherit the patched callee")
        knutson_F = verify.knutson_F

        def raises_at_plus_minus(sig):
            if str(sig) == "+-":
                raise MemoryError("no room at +-")
            return knutson_F(sig)

        monkeypatch.setattr(verify, "knutson_F", raises_at_plus_minus)
        out = tmp_path / "report.json"
        argv = ["certify", "--suite", "knutson", "--n", "2", "--format", "json"]
        assert main(argv + ["--out", str(out), "--workers", str(workers)]) == 4
        captured = capsys.readouterr()
        printed = json.loads(captured.out)
        assert json.loads(out.read_text()) == printed
        assert printed["summary"] == {"pass": 5, "fail": 0, "budget": 0, "error": 1, "total": 6}
        errored = [
            (case["case_id"], case["witnesses"])
            for case in printed["cases"]
            if case["status"] == "error"
        ]
        assert errored == [("knutson/N2/+-", ["MemoryError: no room at +-"])]
        if workers == 1:  # a worker's stderr is its own
            assert "Traceback" in captured.err and "MemoryError: no room at +-" in captured.err

    def test_killed_worker_loses_only_its_unfinished_calls(self, monkeypatch, capsys):
        import multiprocessing

        import tensorcert.verify as verify

        if multiprocessing.get_context().get_start_method() != "fork":
            pytest.skip("only forked workers inherit the patched callee")
        knutson_F = verify.knutson_F
        parent = os.getpid()
        claim = knutson_case(Signature((1,)), BUDGET).claim

        def dies_at_plus_minus(sig):
            if str(sig) == "+-" and os.getpid() != parent:
                os._exit(9)
            return knutson_F(sig)

        monkeypatch.setattr(verify, "knutson_F", dies_at_plus_minus)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["certify", "--suite", "knutson", "--n", "2", "--format", "json", "--workers", "2"]
        assert main(argv) == 4
        printed = json.loads(capsys.readouterr().out)
        ids = [f"knutson/N{len(s)}/{s}" for s in ("+", "-", "++", "+-", "-+", "--")]
        assert [case["case_id"] for case in printed["cases"]] == ids
        lost = {case["case_id"]: case for case in printed["cases"] if case["status"] == "error"}
        assert "knutson/N2/+-" in lost
        for case_id, case in lost.items():
            sig = case_id.rsplit("/", 1)[1]
            assert (case["suite"], case["claim"]) == ("knutson", claim)
            assert (case["N"], case["signature"], case["details"]) == (len(sig), sig, {})
            [witness] = case["witnesses"]
            assert witness.startswith("BrokenProcessPool: ")
        finished = [case for case in printed["cases"] if case["case_id"] not in lost]
        assert all(case["status"] == "pass" for case in finished)

    def test_tensoriality_suite_builds_fleet_once(self, monkeypatch):
        import tensorcert.cli as cli

        calls = []

        def counted():
            calls.append(1)
            return build_fleet()

        monkeypatch.setattr(cli, "build_fleet", counted)
        report = run_suite("tensoriality", 1)
        assert len(calls) == 1
        assert report.exit_code() == 0
        assert "tensoriality/unit-fails" in {c.case_id for c in report.cases}

    def test_budget_exhaustion_exit_two(self, capsys):
        code = main(
            ["certify", "--suite", "gen-set", "--n", "2", "--sig", "++", "--budget", "10"]
        )
        assert code == 2

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CERTIFY_BUDGET", "10")
        code = main(["certify", "--suite", "gen-set", "--n", "2", "--sig", "++"])
        assert code == 2
        monkeypatch.setenv("CERTIFY_BUDGET", "not-a-number")
        assert main(["certify", "--suite", "gen-set", "--n", "1"]) == 3

    def test_non_positive_budget_is_usage_error_before_any_case(
        self, monkeypatch, capsys, tmp_path
    ):
        import tensorcert.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a case ran although the step budget is not positive")

        for name in ("run_suite", "groebner_basis", "intersect_pair"):
            monkeypatch.setattr(cli, name, never)
        ideal = tmp_path / "ideal.txt"
        ideal.write_text("x1 - y1\n")
        for budget in ("--budget=0", "--budget=-5"):
            assert main(["certify", "--suite", "knutson", "--n", "1", budget]) == 3
            assert main(["gb", "--ideal", str(ideal), budget]) == 3
            assert main(["intersect", "--a", str(ideal), "--b", str(ideal), budget]) == 3
        monkeypatch.setenv("CERTIFY_BUDGET", "-1")
        assert main(["certify", "--suite", "squeeze", "--n", "1"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error: ") == len(err.strip().splitlines()) == 7

    def test_non_positive_workers_is_usage_error_before_any_case(self, monkeypatch, capsys):
        import tensorcert.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a case ran although --workers is not positive")

        monkeypatch.setattr(cli, "run_suite", never)
        for workers in ("--workers=0", "--workers=-5"):
            assert main(["certify", "--suite", "squeeze", "--n", "1", workers]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error: --workers must be at least 1") for line in lines)

    def test_exponent_at_engine_cap_is_usage_error_before_any_basis(
        self, monkeypatch, capsys, tmp_path
    ):
        import tensorcert.cli as cli
        from tensorcert.groebner import EXPONENT_CAP

        names = ("small.txt", "below.txt", "at.txt", "big.txt")
        small, below, at, big = (tmp_path / name for name in names)
        small.write_text("x1 - y1\n")
        below.write_text(f"x1^{EXPONENT_CAP - 1} - y1\n")
        at.write_text(f"x1*y1 - z1^{EXPONENT_CAP}\n")
        big.write_text("x1^40000 - y1\n")
        assert main(["gb", "--ideal", str(below)]) == 0
        assert capsys.readouterr().out == f"x1^{EXPONENT_CAP - 1} - y1\n"

        def never(*args, **kwargs):
            raise AssertionError("a basis was computed for a refused input")

        for name in ("groebner_basis", "intersect_pair"):
            monkeypatch.setattr(cli, name, never)
        for argv in (
            ["gb", "--ideal", str(big)],
            ["gb", "--ideal", str(at)],
            ["intersect", "--a", str(small), "--b", str(big)],
        ):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
            assert "Traceback" not in err

    def test_report_matches_golden(self, capsys):
        # certify --suite all --n 1 --format json, every wall_time_ms zeroed;
        # tests/data/report-all-n2.json is made the same way at N = 2
        golden = pathlib.Path(__file__).parent / "data" / "report-all-n1.json"
        assert main(["certify", "--suite", "all", "--n", "1", "--format", "json"]) == 0
        out = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', capsys.readouterr().out)
        assert out == golden.read_text(encoding="utf-8")

    def test_sig_value_after_a_space_matches_golden(self, capsys):
        # argparse alone reads "-+" after --sig as a flag and exits 3
        golden = pathlib.Path(__file__).parent / "data" / "report-all-n2-sig.json"
        argv = ["certify", "--suite", "all", "--n", "2", "--sig", "++", "--sig", "-+"]
        assert main(argv + ["--format", "json"]) == 0
        out = re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', capsys.readouterr().out)
        assert out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("text", ["-+", "-"])
    def test_gens_sig_value_after_a_space(self, capsys, text):
        n = str(len(text))
        assert main(["gens", "--n", n, f"--sig={text}"]) == 0
        joined = capsys.readouterr().out
        assert main(["gens", "--n", n, "--sig", text]) == 0
        assert capsys.readouterr().out == joined != ""

    @pytest.mark.parametrize("form", [["--sig=--"], ["--sig", "--"]], ids=["joined", "spaced"])
    def test_sig_selects_the_signature_with_two_skew_entries(self, capsys, form):
        # argparse drops a '--' value even from --sig=--, and reads a lone
        # '--' as the end of the options
        sig = Signature.parse("--")
        zeroed = functools.partial(re.sub, r'"wall_time_ms": \d+', '"wall_time_ms": 0')
        assert main(["certify", "--suite", "all", "--n", "2", *form, "--format", "json"]) == 0
        expected = emit_report(run_suite("all", 2, [sig]), "json") + "\n"
        assert zeroed(capsys.readouterr().out) == zeroed(expected)
        assert '"signatures": "--"' in expected
        assert main(["gens", "--n", "2", *form]) == 0
        order = letter_block_order(2)
        members = candidate_basis(sig, xyz_ring(2)).members
        assert capsys.readouterr().out == "".join(f"{render_polynomial(g, order)}\n" for g in members)

    @pytest.mark.parametrize(
        "args, golden",
        [
            (["intersect", "--a", "ideal-a-n2.txt", "--b", "ideal-b-n2.txt"], "intersect-a-b-n2.txt"),
            (["gb", "--ideal", "ideal-t-n2.txt", "--order", "elim"], "gb-t-n2-elim.txt"),
        ],
    )
    def test_ideal_commands_match_golden(self, capsys, args, golden):
        data = pathlib.Path(__file__).parent / "data"
        argv = [str(data / a) if a.endswith(".txt") else a for a in args]
        assert main(argv) == 0
        assert capsys.readouterr().out == (data / golden).read_text(encoding="utf-8")

    def test_gens_output_parses(self, capsys):
        code = main(["gens", "--n", "2", "--sig", "++"])
        assert code == 0
        from tensorcert.parse import parse_polynomial
        from tensorcert.xyz import xyz_ring

        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9  # 8 torsions + 1 quadratic
        ring = xyz_ring(2)
        for line in lines:
            parse_polynomial(line, ring)

    def test_gb_command(self, tmp_path, capsys):
        ideal = tmp_path / "ideal.txt"
        ideal.write_text("# a toy ideal\nx1 - y1\nx1 - z1\n")
        code = main(["gb", "--ideal", str(ideal), "--order", "desc"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["y1 - z1", "x1 - z1"]

    def test_gb_parse_error_names_the_file_line(self, tmp_path, capsys):
        ideal = tmp_path / "bad.txt"
        ideal.write_text("# two generators\nx1 - y1\n\n# and a typo\nx1 + + y1\n")
        assert main(["gb", "--ideal", str(ideal)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {ideal}: expected a factor (line 5, column 6)\n"

    @pytest.mark.parametrize("line, col", [("x1² - y1", 3), ("²*x1", 1)])
    def test_gb_non_ascii_digit_is_a_usage_error(self, line, col, tmp_path, capsys):
        ideal = tmp_path / "bad.txt"
        ideal.write_text(line + "\n", encoding="utf-8")
        assert main(["gb", "--ideal", str(ideal)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {ideal}: unexpected character '²' (line 1, column {col})\n"

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # about 90 KB, more than a pipe holds, so writing outlives the reader
            (["gens", "--n", "10", "--sig", "+" * 10], 1),
            (["certify", "--suite", "squeeze", "--n", "1", "--format", "text"], 0),
        ],
    )
    def test_closed_stdout_exits_141_without_traceback(self, argv, lines_read):
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)  # the block-buffered stdout a pipe gets
        read_end, write_end = os.pipe()
        reader = os.fdopen(read_end, "rb", buffering=0)
        if not lines_read:  # the reader is gone before the first write
            reader.close()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tensorcert.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_end)
        for _ in range(lines_read):
            assert reader.readline().endswith(b"\n")
        reader.close()
        err = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 141
        assert "Traceback" not in err and "BrokenPipe" not in err

    def test_intersect_command(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("y1 + z1\n")
        b.write_text("(z1+x1)*(x1+y1)\n")
        code = main(["intersect", "--a", str(a), "--b", str(b)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        from tensorcert.parse import parse_polynomial
        from tensorcert.xyz import letter_block_order, xyz_ring

        ring = xyz_ring(1)
        expected = parse_polynomial("(x1+y1)*(y1+z1)*(z1+x1)", ring)
        got = parse_polynomial(out, ring)
        order = letter_block_order(1)
        assert monic(got, order) == monic(expected, order)

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorcert.cli", "certify", "--suite", "knutson", "--n", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_out_is_written_atomically(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("stale")
        args = ["certify", "--suite", "knutson", "--n", "1", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["summary"]["total"] == 2
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_unwritable_out_is_usage_error_before_any_case(self, monkeypatch, capsys, tmp_path):
        import tensorcert.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("run_suite ran although --out cannot be written")

        monkeypatch.setattr(cli, "run_suite", never)
        args = ["certify", "--suite", "squeeze", "--n", "1", "--out"]
        assert main(args + ["/nonexistent-dir/r.json"]) == 3
        assert main(args + [str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("error: --out") == 2 and len(err.strip().splitlines()) == 2

    def test_import_loads_no_process_pool(self):
        # only run_suite with more than one worker needs multiprocessing
        src = str(pathlib.Path(__file__).parent.parent / "src")
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import tensorcert.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_workers_are_clamped(self, monkeypatch):
        import concurrent.futures
        import os

        started = []

        class RecordingPool(concurrent.futures.Executor):
            def __init__(self, max_workers):
                started.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        report = run_suite("knutson", 2, workers=64)  # 6 cases, 3 cpus
        assert started == [3]
        assert report.workers == 64
        run_suite("knutson", 1, workers=64)  # 2 cases
        assert started == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_suite("knutson", 2, workers=64)  # one cpu: no pool at all
        assert started == [3, 2]

    def test_parallel_tensoriality_matches_serial(self):
        serial = run_suite("tensoriality", 1, workers=1)
        parallel = run_suite("tensoriality", 1, workers=2)
        for case in serial.cases + parallel.cases:
            case.wall_time_ms = 0
        assert [c.to_dict() for c in parallel.cases] == [c.to_dict() for c in serial.cases]

    def test_parallel_workers_match_serial(self):
        serial = run_suite("knutson", 2, workers=1)
        parallel = run_suite("knutson", 2, workers=2)
        for case in serial.cases + parallel.cases:
            case.wall_time_ms = 0
        assert [c.to_dict() for c in serial.sorted_cases()] == [
            c.to_dict() for c in parallel.sorted_cases()
        ]
