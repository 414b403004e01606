import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msetperm
from msetperm import cli, formulas
from msetperm.cache import AUDIT_EVERY, CountCache, _digest, default_cache_path
from msetperm.cli import build_parser, main
from msetperm.gentree import SuccessionRule, builtin_rule, count_at_height


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env() -> dict[str, str]:
    # pytest's pythonpath setting reaches only its own sys.path, so hand a
    # subprocess the directory this package was imported from.
    src = str(Path(msetperm.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("pair", ["122,122", "122,233"])
    def test_a_pair_of_one_pattern_is_refused(self, capsys, pair):
        # 233 reduces to 122: the oracle would count {122} alone, 15
        code, out, err = run_cli(capsys, "count", "--pair", pair, "--n", "3", "--m", "2",
                                 "--method", "oracle", "--no-cache")
        assert code == 2 and out == "" and "two distinct patterns" in err

    @pytest.mark.parametrize("argv", [
        ("--pair", "212,132", "--n", "4", "--m", "2"),  # quoted 55, oracle 37
        ("--pair", "111,123", "--n", "3", "--m", "2"),  # quoted 5, oracle 43
        ("--pair", "132,231", "--n", "2", "--m", "2", "--method", "formula"),
    ])
    def test_unproved_rows_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "count", *argv, "--no-cache")
        assert code == 2 and out == ""
        assert "unsupported" in err and "report-only" in err

    @pytest.mark.parametrize("pair", ["112,12", "121,1", "11,1234"])
    def test_m1_catalog_refuses_other_pattern_lengths(self, capsys, pair):
        # the oracle gives 1, 0 and 23; the catalog used to print catalan(4)
        code, out, err = run_cli(capsys, "count", "--pair", pair, "--n", "4",
                                 "--m", "1", "--no-cache")
        assert code == 2 and out == "" and "unsupported" in err

    def test_method_all_on_an_unproved_row(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "212,132", "--n", "4",
                               "--m", "2", "--method", "all", "--records",
                               "--no-cache")
        assert code == 0
        records = {r["method"]: r for r in map(json.loads, out.splitlines()[:-1])}
        assert records["oracle"]["count"] == 37
        assert records["formula"]["count"] == "-"
        assert "report-only" in records["formula"]["note"]
        # one answer is not a cross-check, and the verdict says so
        assert out.splitlines()[-1] == \
            "cross-check: only oracle answered; nothing to compare"

    def test_method_all_at_m1_shows_no_tree(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pair", "122,123", "--n", "3",
                               "--m", "1", "--method", "all", "--records",
                               "--no-cache")
        assert code == 0
        records = {r["method"]: r for r in map(json.loads, out.splitlines()[:-1])}
        assert records["gentree"]["count"] == "-"
        assert records["oracle"]["count"] == records["formula"]["count"] == 5
        assert out.splitlines()[-1] == "cross-check: OK (2 methods agree)"
        code, out, err = run_cli(capsys, "count", "--pair", "122,123", "--n", "3",
                                 "--m", "1", "--method", "gentree", "--no-cache")
        assert code == 2 and out == "" and "unsupported" in err

    def test_out_of_domain_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pair", "132,231",
                               "--n", "1", "--m", "2", "--method", "formula",
                               "--no-cache")
        assert code == 3 and "out of domain" in err

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pair", "123,132",
                               "--n", "12", "--m", "2", "--method", "oracle",
                               "--no-cache")
        assert code == 4
        assert err.strip() == "budget exceeded: length 24 exceeds the budget of 18"

    def test_plain_walk_budget_exit_code(self, capsys):
        # within the budget of 18, but 1234 and 4321 are tested on every prefix
        code, out, err = run_cli(capsys, "count", "--pair", "1234,4321",
                                 "--n", "9", "--m", "2", "--method", "oracle",
                                 "--no-cache")
        assert code == 4 and out == ""
        assert err.strip() == "budget exceeded: length 18 exceeds the budget of 8"

    def test_formula_does_not_run_the_recurrence(self, capsys, monkeypatch):
        # the (211,213) and (122,213) rows serve the closed Binet forms, so
        # --method all compares four different computations
        monkeypatch.setattr(formulas, "recurrence_count", lambda pair, n, m: -1)
        for pair, expected in (("211,213", 53), ("122,213", 142)):
            code, out, _ = run_cli(capsys, "count", "--pair", pair, "--n", "5",
                                   "--m", "3", "--method", "formula", "--no-cache")
            assert code == 0 and out == f"{expected}\n", pair

    @pytest.mark.parametrize("pair,m,code,message", [
        ("123,321", 2, 2,
         "unsupported: no two-term recurrence is catalogued for 123,321"),
        ("211,213", 1, 3, "out of domain: recurrences are stated for n >= 1, m >= 2"),
    ])
    def test_recurrence_at_n0_refuses_what_n1_refuses(self, capsys, pair, m,
                                                       code, message):
        for n in ("0", "1"):
            got, out, err = run_cli(capsys, "count", "--pair", pair, "--n", n,
                                    "--m", str(m), "--method", "recurrence",
                                    "--no-cache")
            assert (got, out, err.strip()) == (code, "", message), n

    def test_recurrence_at_n0_counts_the_empty_permutation(self, capsys):
        for pair, m in (("211,213", 2), ("122,213", 3)):
            code, out, _ = run_cli(capsys, "count", "--pair", pair, "--n", "0",
                                   "--m", str(m), "--method", "recurrence",
                                   "--no-cache")
            assert code == 0 and out == "1\n", pair
        code, out, _ = run_cli(capsys, "count", "--pair", "123,321", "--n", "0",
                               "--m", "2", "--method", "all", "--no-cache")
        assert code == 0
        assert out.splitlines()[-1] == "cross-check: OK (2 methods agree)"

    def test_method_all_on_a_family_member_at_m3(self, capsys):
        # (132,221) is an image of (211,213); at m = 3 the (122,213)
        # recurrence would answer 13, not 9
        code, out, _ = run_cli(capsys, "count", "--pair", "132,221", "--n", "3",
                               "--m", "3", "--method", "all", "--no-cache")
        assert code == 0
        assert out.splitlines()[-1] == "cross-check: OK (4 methods agree)"

    def test_method_all_mismatch_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recurrence_count", lambda pair, n, m: -1)
        code, _, err = run_cli(capsys, "count", "--pair", "211,213", "--n", "3",
                               "--m", "2", "--method", "all", "--no-cache")
        assert code == 5 and "cross-check: MISMATCH" in err

    @pytest.mark.parametrize("argv,message", [
        (("--bfile",), "--bfile needs --nmax"),
        ((), "--n is required (or use --bfile with --nmax)"),
    ])
    def test_missing_size_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "count", "--pair", "122,123", "--m", "2",
                                 "--no-cache", *argv)
        assert code == 2 and out == "" and err.strip() == f"unsupported: {message}"

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

    def test_bfile_gentree_walks_the_tree_once(self, capsys, monkeypatch):
        expected = [f"{n} {count_at_height(builtin_rule('122-213', 3), n)}"
                    for n in range(1, 31)]
        steps = []
        step = SuccessionRule.step
        monkeypatch.setattr(SuccessionRule, "step",
                            lambda rule, profile: steps.append(1) or step(rule, profile))
        code, out, _ = run_cli(capsys, "count", "--pair", "122,213", "--m", "3",
                               "--bfile", "--nmax", "30", "--method", "gentree",
                               "--no-cache")
        assert code == 0 and out.splitlines() == expected
        assert len(steps) == 30

    def test_bfile_recurrence_iterates_once(self, capsys, monkeypatch):
        expected = [f"{n} {formulas.recurrence_count(('211', '213'), n, 3)}"
                    for n in range(1, 41)]
        calls = []
        count = formulas.recurrence_count
        counted = lambda pair, n, m: calls.append(n) or count(pair, n, m)
        monkeypatch.setattr(formulas, "recurrence_count", counted)
        monkeypatch.setattr(cli, "recurrence_count", counted)
        code, out, _ = run_cli(capsys, "count", "--pair", "211,213", "--m", "3",
                               "--bfile", "--nmax", "40", "--method", "recurrence",
                               "--no-cache")
        assert code == 0 and out.splitlines() == expected
        assert len(calls) <= 1

    def test_bfile_refuses_method_all(self, capsys):
        code, out, err = run_cli(capsys, "count", "--pair", "122,123", "--m", "2",
                                 "--bfile", "--nmax", "3", "--method", "all",
                                 "--no-cache")
        assert code == 2 and out == "" and "unsupported" in err

    def test_bad_sizes_are_refused(self, capsys):
        for argv, option in (
                (("count", "--pair", "123,132", "--n", "-1", "--m", "2",
                  "--method", "oracle", "--no-cache"), "--n: must be >= 0"),
                (("count", "--pair", "123,132", "--n", "3", "--m", "0",
                  "--method", "oracle", "--no-cache"), "--m: must be >= 1"),
                (("growth", "--pattern", "12", "--m", "0", "--nmax", "2"),
                 "--m: must be >= 1")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == "", argv
            assert option in captured.err.splitlines()[-1]
            assert "Traceback" not in captured.err


    @pytest.mark.parametrize("pair", ["123", "123,132,213"])
    def test_a_pair_of_other_than_two_patterns_is_refused(self, capsys, pair):
        code, out, err = run_cli(capsys, "count", "--pair", pair, "--n", "3", "--m", "2",
                                 "--no-cache")
        assert (code, out) == (2, "")
        assert err == f"unsupported: --pair wants two patterns, got {pair!r}\n"

    def test_a_pair_with_no_classical_count_is_refused_by_formula(self, capsys):
        argv = ("count", "--pair", "12,21", "--n", "3", "--m", "1")
        code, out, err = run_cli(capsys, *argv, "--method", "formula")
        assert (code, out) == (2, "")
        assert err == "unsupported: no classical pair count catalogued for 12,21\n"
        assert run_cli(capsys, *argv, "--method", "oracle", "--no-cache")[:2] == (0, "0\n")


class TestCache:
    def test_hit_serves_and_audit_agrees(self, tmp_path, capsys, monkeypatch):
        cache_file = tmp_path / "counts.jsonl"
        argv = ["count", "--pair", "122,213", "--n", "4", "--m", "3",
                "--method", "oracle", "--cache", str(cache_file)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == "43"
        assert cache_file.exists()
        # audited or not, a second run returns the same number
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == "43"

    def test_second_oracle_answer_comes_from_the_file(self, tmp_path, capsys,
                                                      monkeypatch):
        cache_file = tmp_path / "counts.jsonl"
        argv = ["count", "--pair", "122,312", "--n", "4", "--m", "2",
                "--method", "oracle", "--cache", str(cache_file)]
        assert run_cli(capsys, *argv)[:2] == (0, "7\n")

        # this key is outside the audit bucket, so a hit is never recomputed
        def unreachable(*args, **kwargs):
            raise AssertionError("the oracle ran on a cache hit")
        monkeypatch.setattr("msetperm.cli.count_avoiders", unreachable)
        assert run_cli(capsys, *argv)[:2] == (0, "7\n")

    def test_env_var_location(self, tmp_path, monkeypatch, capsys):
        cache_file = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("MSETPERM_CACHE", str(cache_file))
        code, out, _ = run_cli(capsys, "count", "--pair", "122,312",
                               "--n", "4", "--m", "2", "--method", "oracle")
        assert code == 0 and out.strip() == "7"
        assert cache_file.exists()

    def test_only_oracle_counts_touch_the_file(self, tmp_path, capsys):
        cache_file = tmp_path / "counts.jsonl"

        def run_cheap_methods():
            for method in ("formula", "recurrence", "gentree"):
                assert run_cli(capsys, "count", "--pair", "122,213", "--n", "4",
                               "--m", "2", "--method", method,
                               "--cache", str(cache_file))[0] == 0
        run_cheap_methods()
        assert not cache_file.exists()
        CountCache(cache_file).store(("122", "213"), 3, 2, 7)
        before = cache_file.read_text()
        run_cheap_methods()
        assert cache_file.read_text() == before

    def test_corrupt_lines_ignored(self, tmp_path):
        cache_file = tmp_path / "counts.jsonl"
        cache = CountCache(cache_file)
        cache.store(("122", "213"), 3, 2, 7)
        cache_file.write_text(cache_file.read_text() + "NOT JSON\n{\"partial\": 1}\n")
        fresh = CountCache(cache_file)
        assert fresh.lookup(("122", "213"), 3, 2) == 7
        assert fresh.lookup(("122", "213"), 9, 2) is None

    def test_audit_catches_poisoned_entry(self, tmp_path, monkeypatch, capsys):
        cache_file = tmp_path / "counts.jsonl"
        CountCache(cache_file).store(("122", "213"), 3, 2, 999)
        monkeypatch.setattr("msetperm.cache.AUDIT_EVERY", 1)  # audit every hit
        code, out, err = (main(["count", "--pair", "122,213", "--n", "3", "--m", "2",
                                "--method", "oracle", "--cache", str(cache_file)]),
                          *capsys.readouterr())
        assert code == 0
        assert out.strip() == "7"  # recomputed value wins
        assert "audit mismatch" in err
        assert CountCache(cache_file).lookup(("122", "213"), 3, 2) == 7

    def test_audit_decision_is_the_same_on_every_run(self, tmp_path, monkeypatch,
                                                     capsys):
        import msetperm.cli as cli
        real, calls = cli.count_avoiders, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, "count_avoiders", counted)
        outcomes = set()
        # (122,213) at n=4, m=2 falls in the audit bucket; the others do not
        for pair in ("122,213", "122,312", "112,122"):
            cache_file = tmp_path / f"{pair}.jsonl"
            argv = ["count", "--pair", pair, "--n", "4", "--m", "2",
                    "--method", "oracle", "--cache", str(cache_file)]
            run_cli(capsys, *argv)  # fills the cache
            recomputed = []
            for _ in range(12):
                calls.clear()
                assert run_cli(capsys, *argv)[0] == 0
                recomputed.append(len(calls))
            assert len(set(recomputed)) == 1, (pair, recomputed)
            outcomes.add(recomputed[0])
        assert outcomes == {0, 1}

    def test_a_byte_that_is_not_utf8_spoils_only_its_line(self, tmp_path, capsys):
        cache_file = tmp_path / "counts.jsonl"
        CountCache(cache_file).store(("122", "312"), 4, 2, 7)
        cache_file.write_bytes(b"\xff\xfe\n" + cache_file.read_bytes())
        assert CountCache(cache_file).lookup(("122", "312"), 4, 2) == 7
        assert capsys.readouterr().err.count("ignoring corrupt line") == 1
        code, out, err = run_cli(capsys, "count", "--pair", "122,312", "--n", "4",
                                 "--m", "2", "--method", "oracle", "--cache", str(cache_file))
        assert (code, out) == (0, "7\n")
        assert err.count("ignoring corrupt line") == 1

    # the first key falls in the audit bucket, which the audit test above needs
    @pytest.mark.parametrize("pair,n,m,key", [
        (("122", "213"), 4, 2, "8e5878d68666a370"),
        (("122", "312"), 4, 2, "63ec3ff6fe12b443"),
        (("1234", "2143"), 13, 1, "68743d14195c4bd5"),
    ])
    def test_keys_are_pinned(self, pair, n, m, key):
        assert _digest(pair, n, m) == key
        assert (int(key, 16) % AUDIT_EVERY == 0) == (pair == ("122", "213"))

    def test_a_record_keyed_by_hashlib_is_found(self, tmp_path):
        import hashlib
        pair, n, m = ("112", "122"), 4, 2
        key = hashlib.sha256(json.dumps([list(pair), n, m]).encode()).hexdigest()[:16]
        cache_file = tmp_path / "counts.jsonl"
        cache_file.write_text(json.dumps({"key": key, "pair": list(pair), "n": n, "m": m,
                                          "count": "12"}) + "\n")
        assert CountCache(cache_file).lookup(pair, n, m) == 12

    def test_without_a_builtin_sha256_hashlib_gives_the_same_key(self):
        code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from msetperm.cache import _digest\n"
                "print('hashlib' in sys.modules, _digest(('122', '213'), 4, 2))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=subprocess_env())
        assert proc.stdout.split() == ["True", _digest(("122", "213"), 4, 2)]

    def test_two_concurrent_writers_lose_no_record(self, tmp_path):
        cache_file = tmp_path / "counts.jsonl"
        code = ("import sys\nfrom pathlib import Path\nfrom msetperm.cache import CountCache\n"
                "cache, m = CountCache(Path(sys.argv[1])), int(sys.argv[2])\n"
                "for n in range(200):\n"
                "    cache.store(('122', '213'), n, m, 1000 * m + n)\n")
        writers = [subprocess.Popen([sys.executable, "-c", code, str(cache_file), str(m)],
                                    env=subprocess_env()) for m in (1, 2)]
        assert [w.wait(timeout=60) for w in writers] == [0, 0]
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 400
        assert all(json.loads(line)["count"] for line in lines)
        cache = CountCache(cache_file)
        assert all(cache.lookup(("122", "213"), n, m) == 1000 * m + n
                   for m in (1, 2) for n in range(200))


    def test_a_cache_path_that_is_a_directory_warns_once(self, tmp_path, capsys):
        # the lookup cannot read it and the store cannot append to it; only
        # the first failure is reported
        code, out, err = run_cli(capsys, "count", "--pair", "123,132", "--n", "3", "--m", "2",
                                 "--method", "oracle", "--cache", str(tmp_path))
        assert (code, out) == (0, "24\n")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"cache warning: unreadable cache file {tmp_path}: ")

    def test_blank_lines_are_skipped_without_a_warning(self, tmp_path, capsys):
        cache_file = tmp_path / "counts.jsonl"
        cache_file.write_text("\n  \n\n")
        code, out, err = run_cli(capsys, "count", "--pair", "123,132", "--n", "3", "--m", "2",
                                 "--method", "oracle", "--cache", str(cache_file))
        assert (code, out, err) == (0, "24\n", "")
        lines = cache_file.read_text().split("\n")
        assert lines[:3] == ["", "  ", ""] and lines[-1] == ""
        assert json.loads(lines[3])["count"] == "24" and len(lines) == 5

    def test_default_path_is_under_the_xdg_cache_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MSETPERM_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_path() == tmp_path / "msetperm" / "counts.jsonl"


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

    @pytest.mark.parametrize("kind,text,m,expected", [
        ("dyck", "44323121", None, "XYXXYXYY"),
        ("path", "1,4,7,7,7", "3", "UURRRURRRURRRRRRR"),
        ("simion", "43421321", None, "43421231"),
    ])
    def test_inverse_directions(self, capsys, kind, text, m, expected):
        argv = ["bijection", "--kind", kind, "--direction", "inv", "--input", text]
        code, out, _ = run_cli(capsys, *argv, *(["--m", m] if m else []))
        assert code == 0 and out.strip() == expected

    @pytest.mark.parametrize("kind,direction,text,message", [
        ("labels", "inv", "1,4,7", "--kind labels --direction inv needs --m"),
        ("path", "fwd", "UUR", "--kind path needs --m"),
    ])
    def test_missing_m_is_refused(self, capsys, kind, direction, text, message):
        code, out, err = run_cli(capsys, "bijection", "--kind", kind,
                                 "--direction", direction, "--input", text)
        assert code == 2 and out == "" and err.strip() == f"unsupported: {message}"

    def test_the_empty_permutation_round_trips_through_text(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--kind", "labels",
                               "--direction", "inv", "--input", "1", "--m", "2")
        assert code == 0 and out.strip() == "()"
        code, out, _ = run_cli(capsys, "bijection", "--kind", "labels",
                               "--direction", "fwd", "--input", out.strip())
        assert code == 0 and out.strip() == "1"

    def test_domain_violation_reports_occurrence(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--kind", "simion",
                               "--direction", "fwd", "--input", "1322")
        assert code == 2
        assert "contains 122 at positions" in err

    @pytest.mark.parametrize("argv", [
        ("bijection", "--kind", "simion", "--direction", "fwd", "--input", "1 a"),
        ("count", "--pair", "1 2 x,123", "--n", "2", "--m", "2", "--method",
         "oracle", "--no-cache"),
        ("growth", "--pattern", "1 b", "--m", "2"),
        ("bijection", "--kind", "labels", "--direction", "inv", "--input", "1,x",
         "--m", "2"),
    ])
    def test_malformed_letters_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

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

    def test_classify_empirical(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--empirical")
        assert code == 0
        assert "empirical grouping on the grid: 17 groups" in out
        lines = [line.strip() for line in out.splitlines()]
        assert "(121,123) (121,213)" in lines
        assert "(123,132) (132,312)" in lines

    def test_classify_empirical_refuses_an_empty_grid(self, capsys):
        # with no cell, every class would group together on an empty vector
        for argv in (("--mmax", "1"), ("--mmax", "0"), ("--nmax", "0")):
            code, out, err = run_cli(capsys, "classify", "--empirical", *argv)
            assert code == 2 and out == ""
            assert err.startswith("unsupported: the grid") and err.strip().endswith("has no cell")

    def test_verify_refuses_a_scope_with_no_cell(self, capsys):
        # with m <= 1 the oracle grid has no cell, and every check would
        # pass on nothing
        for argv in (("table1", "--mmax", "1"), ("table1", "--mmax", "0"),
                     ("table1", "--mmax", "1", "--report"), ("gentree", "--mmax", "1"),
                     ("table1", "--mmax", "1", "--records")):
            code, out, err = run_cli(capsys, "verify", "--suite", *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"unsupported: the grid 0 <= n <= {4 if argv[0] == 'table1' else 6}, " \
                          f"2 <= m <= {argv[2]} has no cell\n"

    def test_classify_records(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--records")
        assert code == 0
        *lines, summary = out.splitlines()
        assert summary == "66 pairs in 21 classes"
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 21
        assert all(set(r) == {"representative", "orbit_size", "formula", "members"}
                   for r in rows)
        # every class, the recursion-only ones included, points at the catalog
        assert all(r["formula"] != "-" for r in rows)
        assert sum(r["orbit_size"] for r in rows) == 66

    def test_table_values(self, capsys):
        import csv as csvmod
        import io
        code, out, _ = run_cli(capsys, "table", "--nmax", "3", "--mmax", "2",
                               "--csv")
        assert code == 0 and "\r" not in out  # one CSV writer, "\n" line ends
        rows = list(csvmod.reader(io.StringIO(out)))
        line = next(r for r in rows if r[0] == "112,122")
        assert line[2:5] == ["1", "2", "5"]

    def test_table_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--catalog", "--records")
        assert code == 0
        rows = [json.loads(l) for l in out.splitlines()]
        assert any(r["trust"] == "proved-here" for r in rows)
        assert any(not r["servable"] for r in rows)

    def test_table_catalog_prints_pairs_as_classify_does(self, capsys):
        # the table and CSV columns read 111,112; the JSON records keep lists
        import csv as csvmod
        import io
        code, out, _ = run_cli(capsys, "table", "--catalog", "--csv")
        assert code == 0
        rows = list(csvmod.DictReader(io.StringIO(out)))
        assert len(rows) == len(formulas.REGISTRY)
        assert (rows[0]["pair"], rows[0]["table_pair"]) == ("111,112", "111,112")
        # a quoted row keeps its table's pair beside the canonical one
        assert {"pair": "112,123", "table_pair": "122,123"}.items() <= \
            next(r for r in rows if r["table_pair"] == "122,123").items()
        code, out, _ = run_cli(capsys, "table", "--catalog")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["pair", "table_pair"]
        assert [line.split()[:2] for line in lines[1:]] == \
            [[r["pair"], r["table_pair"]] for r in rows]
        code, out, _ = run_cli(capsys, "table", "--catalog", "--records")
        first = json.loads(out.splitlines()[0])
        assert (first["pair"], first["table_pair"]) == (["111", "112"], ["111", "112"])

    def test_growth(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--pattern", "212",
                               "--m", "2", "--nmax", "4", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,count,ratio"
        assert lines[2].startswith("2,2,3,")
        # outside the m = 1 catalog the oracle counts (12-avoiders: one each)
        code, out, _ = run_cli(capsys, "growth", "--pattern", "112,12",
                               "--m", "1", "--nmax", "4", "--csv")
        assert code == 0
        assert [l.split(",")[2] for l in out.splitlines()[1:]] == ["1"] * 4

    @pytest.mark.parametrize("text", [",", "", " , "])
    def test_growth_refuses_a_pattern_option_with_no_pattern(self, capsys, text):
        # the empty set would count every permutation: 1 and 6 at m = 2
        code, out, err = run_cli(capsys, "growth", "--pattern", text, "--m", "2",
                                 "--nmax", "2")
        assert code == 2 and out == ""
        assert err == f"unsupported: --pattern wants at least one pattern, got {text!r}\n"

    def test_growth_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "growth", "--pattern", "212", "--m", "2",
                               "--nmax", "3", "--csv")
        assert code == 0
        assert "\r" not in out and out.endswith("\n")
        lines = out.splitlines()
        assert lines[0] == "n,m,count,ratio"
        assert lines[2].startswith("2,2,3,")
        assert len(lines) == 4
        # six decimal places in the display column
        assert all(len(line.rsplit(".", 1)[1]) == 6 for line in lines[1:])

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

    def test_rule_counts_up_to_height_zero(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--name", "211-213", "--heights", "0")
        assert code == 0
        assert out.splitlines()[-1] == "counts by height: 1"

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

    def test_consecutive_calls_do_not_share_options(self, capsys):
        # one parser serves every call in the process; each call parses afresh
        assert build_parser() is build_parser()
        count = ("count", "--pair", "112,122", "--n", "3", "--m", "2", "--no-cache")
        code, out, _ = run_cli(capsys, *count, "--records")
        assert code == 0 and json.loads(out)["count"] == 5
        code, out, _ = run_cli(capsys, *count)
        assert code == 0 and out == "5\n"
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--nmax", "0")
        assert code == 0
        assert all(line.endswith(": 2 cells") for line in out.splitlines()), out
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1")
        assert code == 0
        # the default grid, n <= 4 at m = 2 and 3
        assert all(line.endswith(": 10 cells") for line in out.splitlines()), out

    def test_verify_table1_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1",
                               "--nmax", "3", "--mmax", "2", "--report")
        assert code == 0
        assert "imported-rows" in out
        assert "DISAGREES" in out  # the quoted rows that fail the oracle

    def test_verify_gentree_scope_bounds_the_label_check(self, capsys):
        def label_cells(*scope):
            code, out, _ = run_cli(capsys, "verify", "--suite", "gentree", *scope)
            assert code == 0 and "FAIL" not in out, out
            return [line.rsplit(": ", 1)[1] for line in out.splitlines()
                    if "-labels" in line]
        # n <= 3 at m = 2 only: heights 0..3 of each rule
        assert label_cells("--nmax", "3", "--mmax", "2") == ["4 cells"] * 3
        # the default scope lists to n*m <= 12 at m = 2 and 3, as before
        assert label_cells() == ["7 cells", "12 cells", "12 cells"]

    def test_verify_report_rows_are_records(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--nmax", "2",
                               "--mmax", "2", "--report", "--records")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        rows = [r for r in lines if "table_pair" in r]
        assert rows and all(set(r) == {"table_pair", "n", "m", "trust", "formula",
                                       "oracle", "agree"} for r in rows)
        assert any(r["agree"] is False for r in rows)
        assert all(r["agree"] is None for r in rows if r["formula"] is None)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "msetperm.cli", "count", "--pair", "112,122",
         "--n", "4", "--m", "3", "--no-cache"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"
