import json
import subprocess
import sys

from msetperm.cache import CountCache
from msetperm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_formula_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "112,122",
                               "--n", "3", "--m", "2", "--no-cache")
        assert code == 0 and out.strip() == "5"

    def test_method_all_cross_check(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "122,312",
                               "--n", "3", "--m", "2", "--method", "all",
                               "--no-cache")
        assert code == 0
        assert "cross-check: OK" in out
        lines = [l for l in out.splitlines() if "oracle" in l or "formula" in l]
        assert all("5" in l for l in lines)

    def test_unsupported_pair_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pair", "123,132",
                               "--n", "3", "--m", "2", "--method", "formula",
                               "--no-cache")
        assert code == 2 and "unsupported" in err

    def test_out_of_domain_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pair", "132,231",
                               "--n", "1", "--m", "2", "--method", "formula",
                               "--no-cache")
        assert code == 3 and "out of domain" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pair", "123,132",
                               "--n", "12", "--m", "2", "--method", "oracle",
                               "--no-cache")
        assert code == 4 and "budget" in err

    def test_bfile_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "122,123",
                               "--m", "2", "--bfile", "--nmax", "5",
                               "--no-cache")
        assert code == 0
        assert out.splitlines() == ["1 1", "2 3", "3 12", "4 55", "5 273"]

    def test_records_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "211,213",
                               "--n", "3", "--m", "2", "--method", "all",
                               "--records", "--no-cache")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert {r["method"] for r in records} >= {"oracle", "formula",
                                                  "recurrence", "gentree"}
        assert all(r["count"] == 7 for r in records)


class TestCache:
    def test_hit_serves_and_audit_agrees(self, tmp_path, capsys, monkeypatch):
        cache_file = tmp_path / "counts.jsonl"
        argv = ["count", "--pair", "122,213", "--n", "4", "--m", "3",
                "--cache", str(cache_file)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == "43"
        assert cache_file.exists()
        # audited or not, a second run returns the same number
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == "43"

    def test_env_var_location(self, tmp_path, monkeypatch, capsys):
        cache_file = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("MSETPERM_CACHE", str(cache_file))
        code, out, _ = run_cli(capsys, "count", "--pair", "122,312",
                               "--n", "4", "--m", "2")
        assert code == 0 and out.strip() == "7"
        assert cache_file.exists()

    def test_corrupt_lines_ignored(self, tmp_path):
        cache_file = tmp_path / "counts.jsonl"
        cache = CountCache(cache_file)
        cache.store(("122", "213"), 3, 2, "formula", 7)
        cache_file.write_text(cache_file.read_text() + "NOT JSON\n{\"partial\": 1}\n")
        fresh = CountCache(cache_file)
        assert fresh.lookup(("122", "213"), 3, 2, "formula") == 7
        assert fresh.lookup(("122", "213"), 9, 2, "formula") is None

    def test_version_mismatch_misses(self, tmp_path, monkeypatch):
        cache_file = tmp_path / "counts.jsonl"
        cache = CountCache(cache_file)
        cache.store(("122", "213"), 3, 2, "formula", 7)
        monkeypatch.setattr("msetperm.cache.CATALOG_VERSION", "other")
        assert CountCache(cache_file).lookup(("122", "213"), 3, 2, "formula") is None

    def test_audit_catches_poisoned_entry(self, tmp_path, monkeypatch, capsys):
        cache_file = tmp_path / "counts.jsonl"
        CountCache(cache_file).store(("122", "213"), 3, 2, "formula", 999)
        monkeypatch.setattr("msetperm.cli.AUDIT_RATE", 1.0)  # audit every hit
        code, out, err = (main(["count", "--pair", "122,213", "--n", "3",
                                "--m", "2", "--cache", str(cache_file)]),
                          *capsys.readouterr())
        assert code == 0
        assert out.strip() == "7"  # recomputed value wins
        assert "audit mismatch" in err


class TestBijectionCommand:
    def test_dyck_forward(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--kind", "dyck",
                               "--direction", "fwd", "--input", "XYXXYXYY")
        assert code == 0 and out.strip() == "44323121"

    def test_simion_forward(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--kind", "simion",
                               "--direction", "fwd", "--input", "43421231")
        assert code == 0 and out.strip() == "43421321"

    def test_labels_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--kind", "labels",
                               "--direction", "inv", "--input", "1,4,7,7,7",
                               "--m", "3")
        assert code == 0 and out.strip() == "443322421311"

    def test_domain_violation_reports_occurrence(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--kind", "simion",
                               "--direction", "fwd", "--input", "1322")
        assert code == 2
        assert "contains 122 at positions" in err

    def test_path_forward(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--kind", "path",
                               "--direction", "fwd",
                               "--input", "UURRRURRRURRRRRRR", "--m", "3")
        assert code == 0 and out.strip() == "1,4,7,7,7"


class TestOtherCommands:
    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify")
        assert code == 0
        assert "66 pairs in 21 classes" in out

    def test_table_values(self, capsys):
        import csv as csvmod
        import io
        code, out, _ = run_cli(capsys, "table", "--nmax", "3", "--mmax", "2",
                               "--csv")
        assert code == 0
        rows = list(csvmod.reader(io.StringIO(out)))
        line = next(r for r in rows if r[0] == "112,122")
        assert line[2:5] == ["1", "2", "5"]

    def test_table_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--catalog", "--records")
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert any(r["trust"] == "proved-here" for r in rows)
        assert any(not r["servable"] for r in rows)

    def test_growth(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--pattern", "212",
                               "--m", "2", "--nmax", "4", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,count,ratio"
        assert lines[2].startswith("2,2,3,")

    def test_verify_suites_exit_zero(self, capsys):
        for suite in ("table1", "gentree", "bijections", "growth", "classify"):
            code, out, _ = run_cli(capsys, "verify", "--suite", suite)
            assert code == 0, out
            assert "FAIL" not in out

    def test_verify_refuses_options_the_suite_ignores(self, capsys):
        for argv in (("--suite", "growth", "--nmax", "2"),
                     ("--suite", "classify", "--mmax", "2"),
                     ("--suite", "gentree", "--report")):
            code, out, err = run_cli(capsys, "verify", *argv)
            assert code == 2 and out == "", argv
            assert "unsupported" in err

    def test_rule_command(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--name", "122-213", "--m", "3",
                               "--heights", "4")
        assert code == 0
        assert out.splitlines()[0] == "root 1"
        assert "counts by height: 1 1 4 13 43" in out

    def test_explicit_zero_scope_is_not_replaced_by_the_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--nmax", "0")
        assert code == 0
        # n = 0 only, at m = 2 and m = 3; the default scope would give n <= 4
        assert all(line.endswith(": 2 cells") for line in out.splitlines()), out
        code, out, _ = run_cli(capsys, "growth", "--pattern", "212", "--m", "2",
                               "--nmax", "0", "--csv")
        assert code == 0 and out == "n,m,count,ratio\n"
        code, out, _ = run_cli(capsys, "table", "--nmax", "0", "--records")
        assert code == 0
        assert all(json.loads(line).keys() == {"pair", "trust"}
                   for line in out.splitlines())

    def test_verify_table1_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1",
                               "--nmax", "3", "--mmax", "2", "--report")
        assert code == 0
        assert "imported-rows" in out
        assert "DISAGREES" in out  # the quoted rows that fail the oracle


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "msetperm.cli", "count", "--pair", "112,122",
         "--n", "4", "--m", "3", "--no-cache"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"
