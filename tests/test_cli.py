"""Command-line interface: argument handling, document schemas, exit codes."""

import hashlib
import json

import pytest

from finring import parse_table_ring, read_ring_file, theorems
from finring.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, EXIT_VERIFY_FAIL, main


@pytest.fixture
def cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def run_json(cli, *argv):
    code, out, err = cli(*argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# report


def test_report_json_document(cli):
    code, doc, _ = run_json(cli, "report", "--ring", "Z(6)")
    assert code == EXIT_OK
    assert doc["ring"] == "Z(6)"
    assert doc["order"] == 6
    assert doc["characteristic"] == 6
    assert doc["commutative"] is True
    assert doc["boolean"] is False
    assert doc["unit_count"] == 2
    assert doc["unit_sum"] == "0" and doc["unit_sum_index"] == 0
    assert doc["units_trivial"] is False
    assert doc["is_division_ring"] is False
    assert doc["radical"] == ["0"]
    assert doc["semisimple"] is True
    assert set(doc["timings"]) == {"construct", "units", "radical"}


def test_report_division_ring_flags(cli):
    code, doc, _ = run_json(cli, "report", "--ring", "GF(8)")
    assert code == EXIT_OK
    assert doc["unit_count"] == 7
    assert doc["is_division_ring"] is True
    assert doc["semisimple"] is True


def test_report_radical_members_pretty(cli):
    code, doc, _ = run_json(cli, "report", "--ring", "Z(4)")
    assert code == EXIT_OK
    assert doc["radical"] == ["0", "2"]
    assert doc["semisimple"] is False


def test_report_skip_radical_omits_keys(cli):
    code, doc, _ = run_json(cli, "report", "--ring", "Z(6)", "--skip-radical")
    assert code == EXIT_OK
    assert "radical" not in doc and "semisimple" not in doc
    assert "unit_count" in doc


def test_report_text_mode_is_aligned(cli):
    code, out, _ = cli("report", "--ring", "B(2)")
    assert code == EXIT_OK
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["order"] == "4"
    assert lines["boolean"] == "true"
    assert lines["unit_count"] == "1"


def test_report_parse_error_is_usage(cli):
    code, out, err = cli("report", "--ring", "Z(0)")
    assert code == EXIT_USAGE
    assert out == "" and "column 3" in err


def test_report_construction_error_is_usage(cli):
    code, _, err = cli("report", "--ring", "GF(6)")
    assert code == EXIT_USAGE
    assert "prime power" in err


# sha256 of each --json document with "timings" dropped (keys sorted),
# taken before the table-first report kernel replaced the per-pair table
# builds, the two-sided radical scan and the per-matrix census loop.
PINNED_DOCUMENTS = [
    ("report", "M(3,GF(2))", "59a8caef1935e2bfeedfe6266776cb2831196826761b4e3c2ea5d1f5d5716bdd"),
    ("report", "UT(4,Z(2))", "427d38a9732a2da6d9f2402eff8660cf6ae668aef36627dbb3e1bd345639ddee"),
    ("report", "GF(256)", "1bfb734763aaa94a48222ba1e9c922a6bde0a9900c26fb02cac7207a67a32e69"),
    ("report", "B(8)", "5d28ec4187442acb38000b9739d3ab522b1b2c09e08236fe173c130e0ef0e515"),
    ("report", "GF(16) x GF(16)",
     "8de8de1f9b387963e6cf1f1474310e5a92469d4d84627d472abd295c52eddcac"),
    ("unit-sum", "M(2,GF(16))", "3dd3318b20786e9cce367538b59d65480f9d118d2d3307629015f69655b384af"),
    ("unit-sum", "M(3,GF(3))", "62e663b3242fad66f8e9009c6734c2c8ee110268b6d1a895096efdde940d52fd"),
    ("unit-sum", "UT(4,GF(4))", "a9d94d4ba9be1718fdab2a38579791f8d5297dd275cfccb2e39c36c2e5074c3f"),
]


@pytest.mark.parametrize("command, ring, digest", PINNED_DOCUMENTS)
def test_analysis_documents_pinned(cli, command, ring, digest):
    code, doc, _ = run_json(cli, command, "--ring", ring)
    assert code == EXIT_OK
    doc.pop("timings")
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# unit-sum and gl-order


def test_unit_sum_json(cli):
    code, doc, _ = run_json(cli, "unit-sum", "--ring", "M(2,GF(2))")
    assert code == EXIT_OK
    assert doc["order"] == 16
    assert doc["unit_count"] == 6
    assert doc["unit_sum"] == "[[0,0],[0,0]]" and doc["unit_sum_index"] == 0
    assert "total" in doc["timings"]


def test_unit_sum_streams_large_matrix_ring(cli):
    # order 10^4 exceeds the dense-table cap, so the census streams
    code, doc, _ = run_json(cli, "unit-sum", "--ring", "M(2,Z(10))")
    assert code == EXIT_OK
    assert doc["order"] == 10 ** 4
    assert doc["unit_count"] == 2880
    assert doc["unit_sum_index"] == 0


def test_unit_sum_counts_a_large_triangular_ring_in_closed_form(cli):
    # 3^5 * 4^10 units, past the 2^20 that a walk over them could take
    code, doc, _ = run_json(cli, "unit-sum", "--ring", "UT(5,GF(4))")
    assert code == EXIT_OK
    assert doc["order"] == 4 ** 15
    assert doc["unit_count"] == 254803968 == 3 ** 5 * 4 ** 10
    assert doc["unit_sum_index"] == 0


@pytest.mark.parametrize("ring, units, sum_index", [
    ("Z(5000)", 2000, 0), ("GF(8192)", 8191, 0), ("B(16)", 1, 2 ** 16 - 1),
    ("GF(16) x GF(16) x GF(16) x GF(16)", 15 ** 4, 0), ("M(2,GF(16)) x Z(2)", 61200, 0),
    ("M(2,Z(100))", 28_800_000, 0), ("M(2,GF(64))", 16_511_040, 0)])
def test_unit_sum_answers_closed_forms_above_the_table_cap(cli, ring, units, sum_index):
    # B(16)'s only unit is its unity, every digit 1
    code, doc, _ = run_json(cli, "unit-sum", "--ring", ring)
    assert code == EXIT_OK
    assert (doc["unit_count"], doc["unit_sum_index"]) == (units, sum_index)


def test_report_above_the_booleanness_scan_cap(cli):
    code, doc, _ = run_json(cli, "report", "--ring", "UT(3,GF(16))", "--skip-radical")
    assert code == EXIT_OK
    assert doc["order"] == 16 ** 6 and doc["unit_count"] == 13_824_000 == 15 ** 3 * 16 ** 3
    assert doc["boolean"] is False and doc["commutative"] is False


def test_gl_order_text_prints_bare_integer(cli):
    code, out, _ = cli("gl-order", "3", "2")
    assert code == EXIT_OK
    assert out == "168\n"


def test_gl_order_json(cli):
    code, doc, _ = run_json(cli, "gl-order", "2", "4")
    assert code == EXIT_OK
    assert doc == {"n": 2, "q": 4, "gl_order": 180}


def test_gl_order_rejects_non_prime_power(cli):
    code, _, err = cli("gl-order", "2", "6")
    assert code == EXIT_USAGE
    assert "prime power" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_json_inline_rings(cli):
    code, doc, _ = run_json(cli, "enumerate", "4")
    assert code == EXIT_OK
    assert doc["order"] == 4 and doc["up_to_iso"] is False
    assert doc["count"] == 14 and doc["complete"] is True
    assert doc["resume_token"] is None and doc["out"] is None
    assert len(doc["rings"]) == 14
    for text in doc["rings"]:
        assert parse_table_ring(text).order == 4


def test_enumerate_iso_to_file(cli, tmp_path):
    path = tmp_path / "rings.txt"
    code, doc, _ = run_json(cli, "enumerate", "8", "--up-to-iso", "--out", str(path))
    assert code == EXIT_OK
    assert doc["count"] == 11 and doc["out"] == str(path)
    assert "rings" not in doc
    with open(path, encoding="utf-8") as fh:
        assert len(read_ring_file(fh)) == 11


def test_enumerate_text_stream_parses_back(cli):
    code, out, _ = cli("enumerate", "3")
    assert code == EXIT_OK
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 2
    for b in blocks:
        assert parse_table_ring(b).order == 3


def test_enumerate_above_mandatory_range_needs_budget(cli):
    code, out, err = cli("enumerate", "12")
    assert code == EXIT_RESOURCE
    assert "budget" in err


def test_enumerate_with_budget_completes(cli):
    code, doc, _ = run_json(cli, "enumerate", "12", "--up-to-iso",
                            "--budget", "1000000")
    assert code == EXIT_OK
    assert doc["count"] == 4 and doc["complete"] is True


def test_enumerate_budget_exhaustion_and_resume(cli):
    code, doc, err = run_json(cli, "enumerate", "4", "--budget", "40")
    assert code == EXIT_RESOURCE
    assert doc["complete"] is False
    token = doc["resume_token"]
    assert token and token.startswith("v1:4:f:")
    seen = list(doc["rings"])
    while token is not None:
        code, doc, _ = run_json(cli, "enumerate", "4", "--budget", "40",
                                "--resume", token)
        seen.extend(doc["rings"])
        token = doc["resume_token"]
    assert code == EXIT_OK and len(seen) == 14


def test_enumerate_text_budget_stderr_hint(cli):
    code, out, err = cli("enumerate", "4", "--budget", "40")
    assert code == EXIT_RESOURCE
    assert "resume with --resume" in err


def test_enumerate_bad_resume_token(cli):
    code, _, err = cli("enumerate", "4", "--resume", "nonsense")
    assert code == EXIT_USAGE


def test_enumerate_resume_index_out_of_range_is_usage(cli):
    code, out, err = cli("enumerate", "9", "--budget", "1000000",
                         "--resume", "v1:9:f:0:99", "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert "malformed resume token" in err


def test_enumerate_resume_token_of_the_other_mode_is_usage(cli):
    code, doc, _ = run_json(cli, "enumerate", "8", "--up-to-iso", "--budget", "100")
    assert code == EXIT_RESOURCE
    iso_token = doc["resume_token"]
    assert iso_token.startswith("v1:8:fi:")
    for argv in (["8", "--resume", iso_token],
                 ["8", "--up-to-iso", "--resume", "v1:8:f:0:"]):
        code, out, err = cli("enumerate", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "does not match" in err


def test_enumerate_iso_budget_resumes_to_the_full_stream(cli):
    _, full, _ = cli("enumerate", "8", "--up-to-iso")
    code, out, err = cli("enumerate", "8", "--up-to-iso", "--budget", "100")
    assert code == EXIT_RESOURCE
    chunks = [out]
    while code == EXIT_RESOURCE:
        token = err.split("--resume '")[1].split("'")[0]
        code, out, err = cli("enumerate", "8", "--up-to-iso", "--budget", "100",
                             "--resume", token)
        chunks.append(out)
    assert code == EXIT_OK
    blocks = [b.strip() for chunk in chunks for b in chunk.split("\n\n") if b.strip()]
    assert blocks == [b.strip() for b in full.split("\n\n") if b.strip()]
    assert len(blocks) == 11 and len(chunks) > 2


def test_enumerate_order_out_of_scope(cli):
    code, _, err = cli("enumerate", "17")
    assert code == EXIT_USAGE
    assert "16" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check_text(cli):
    code, out, _ = cli("verify", "--theorem", "T5", "--max-order", "2")
    assert code == EXIT_OK
    assert out.startswith("T5 PASS")
    assert "GL(2,3) = 48" in out


def test_verify_alias_main(cli):
    code, out, _ = cli("verify", "--theorem", "main", "--max-order", "4")
    assert code == EXIT_OK
    assert out.startswith("T7 PASS")


def test_verify_all_json(cli):
    code, docs, _ = run_json(cli, "verify", "--all", "--max-order", "4")
    assert code == EXIT_OK
    assert [d["check_id"] for d in docs] == [f"T{i}" for i in range(1, 10)]
    assert all(d["passed"] and d["complete"] for d in docs)
    assert all(d["counterexample"] is None for d in docs)


def test_verify_unknown_check(cli):
    code, _, err = cli("verify", "--theorem", "T42")
    assert code == EXIT_USAGE
    assert "unknown check" in err


def test_verify_incomplete_is_resource_exit(cli):
    code, docs, _ = run_json(cli, "verify", "--theorem", "T7",
                             "--max-order", "9", "--budget", "50")
    assert code == EXIT_RESOURCE
    assert docs[0]["complete"] is False


def test_verify_max_order_above_scope_is_usage(cli):
    code, out, err = cli("verify", "--theorem", "T4", "--max-order", "17")
    assert code == EXIT_USAGE and out == ""
    assert "<= 16" in err


def test_verify_all_runs_each_check_through_run_check(cli, monkeypatch):
    # the per-check spans of the benchmark tracer wrap theorems.run_check
    calls = []
    run_check = theorems.run_check

    def counting(cid, **kwargs):
        calls.append(cid)
        return run_check(cid, **kwargs)
    monkeypatch.setattr(theorems, "run_check", counting)
    code, _, _ = cli("verify", "--all", "--max-order", "4")
    assert code == EXIT_OK
    assert calls == list(theorems.CHECK_IDS)


def test_verify_empty_population_notes(cli):
    code, out, _ = cli("verify", "--theorem", "T7", "--max-order", "1")
    assert code == EXIT_OK
    assert "population empty" in out


# ---------------------------------------------------------------------------
# top-level argument handling


def test_no_arguments_is_usage(cli):
    assert cli()[0] == EXIT_USAGE


def test_unknown_subcommand_is_usage(cli):
    assert cli("frobnicate")[0] == EXIT_USAGE


def test_help_exits_cleanly(cli):
    code, out, _ = cli("--help")
    assert code == EXIT_OK
    assert "report" in out and "enumerate" in out


def test_jobs_option_is_gone(cli):
    assert cli("enumerate", "8", "--jobs", "2")[0] == EXIT_USAGE
    assert cli("verify", "--all", "--jobs", "2")[0] == EXIT_USAGE


def test_verify_requires_exactly_one_selector(cli):
    assert cli("verify")[0] == EXIT_USAGE
    assert cli("verify", "--theorem", "T1", "--all")[0] == EXIT_USAGE


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_RESOURCE) == (0, 1, 2, 3)
