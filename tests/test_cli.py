from __future__ import annotations

import json

import pytest

from fdual import duality
from fdual.abelian import ElementSet, GroupSpec, PairingMatrix
from fdual.cli import _parse_budget, main

Z4_INSTANCE = {"group": {"orders": [4]}, "S": [[0], [1]]}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _strip_timestamp(data: dict) -> dict:
    out = dict(data)
    out.pop("timestamp", None)
    return out


class TestVerify:
    def test_order64_instance_verifies(self, theorem21_path, capsys):
        assert main(["verify", str(theorem21_path)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "64" in out

    def test_emit_certificate_roundtrip(self, theorem21_path, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["verify", str(theorem21_path), "--emit-certificate", str(cert_path)]) == 0
        assert main(["verify", str(cert_path)]) == 0
        data = json.loads(cert_path.read_text())
        assert data["kind"] == "self_dual"
        assert data["s_size"] == 8 and data["t_size"] == 8
        assert data["s_primitive"] and data["t_primitive"]

    def test_mutated_instance_fails(self, theorem21_path, tmp_path, capsys):
        data = json.loads(theorem21_path.read_text())
        data["S"] = [c for c in data["S"] if c != [1, 1, 3, 2]] + [[1, 1, 3, 3]]
        path = _write(tmp_path, "mutated.json", data)
        assert main(["verify", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_size_law_failure_mentioned(self, theorem21_path, tmp_path, capsys):
        data = json.loads(theorem21_path.read_text())
        data["S"] = [c for c in data["S"] if c != [1, 1, 3, 2]]
        path = _write(tmp_path, "seven.json", data)
        assert main(["verify", path]) == 1
        assert "size law" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["self_dual", "pair", "fails"])
    def test_one_kernel_run_gives_report_and_certificate(
        self, theorem21_path, tmp_path, capsys, monkeypatch, case
    ):
        # the output is what check_pair and make_certificate give, from one
        # run of the spectrum kernel
        data = json.loads(theorem21_path.read_text())
        if case == "pair":
            data = {"group": {"orders": [8, 8]}, "S": [[0, j] for j in range(8)],
                    "T": [[j, 0] for j in range(8)], "pairing": [[1, 0], [0, 1]], "mode": "pair"}
        if case == "fails":
            data["S"] = [c for c in data["S"] if c != [1, 1, 3, 2]] + [[1, 1, 3, 3]]
        spec = GroupSpec(tuple(data["group"]["orders"]))
        pairing = PairingMatrix(spec, tuple(map(tuple, data["pairing"])))
        s = ElementSet.from_coords(spec, data["S"])
        t = ElementSet.from_coords(spec, data["T"]) if "T" in data else None
        report = duality.check_pair(spec, pairing, s, t or s)
        path = _write(tmp_path, "instance.json", data)
        cert_path = tmp_path / "cert.json"
        runs = []
        chunks = duality._residue_chunks
        monkeypatch.setattr(duality, "_residue_chunks", lambda *a: runs.append(a) or chunks(*a))
        code = main(["verify", path, "--emit-certificate", str(cert_path)])
        out = capsys.readouterr().out
        assert len(runs) == 1
        if case == "fails":
            f = report.first_failure
            assert code == 1 and not cert_path.exists()
            assert out == (f"FAIL at character index {f.index}: expected {f.expected}, got {f.actual}\n"
                           f"checked {report.checked_count} of 64 identities\n")
            return
        cert = duality.make_certificate(spec, pairing, s, t=t, kind=case)
        assert code == 0
        assert _strip_timestamp(json.loads(cert_path.read_text())) == _strip_timestamp(cert.to_dict())
        assert out == (
            f"verified: {case} holds exactly on all 64 characters; |S|=8 |T|=8 "
            f"S primitive={cert.s_primitive} T primitive={cert.t_primitive}\n"
            f"certificate written to {cert_path}\n"
        )

    def test_pair_instance(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": [[0], [1]], "T": [[0], [1]]}
        assert main(["verify", _write(tmp_path, "pair.json", payload)]) == 0

    def test_self_dual_defaults_to_standard_with_warning(self, tmp_path, capsys):
        assert main(["verify", _write(tmp_path, "sd.json", Z4_INSTANCE)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "standard" in captured.err

    def test_garbage_json_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json at all")
        assert main(["verify", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path):
        payload = dict(Z4_INSTANCE, extra=1)
        assert main(["verify", _write(tmp_path, "unknown.json", payload)]) == 2

    def test_missing_file_is_exit_2(self):
        assert main(["verify", "/nonexistent/instance.json"]) == 2

    def test_duplicate_elements_rejected(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": [[0], [0]]}
        assert main(["verify", _write(tmp_path, "dup.json", payload)]) == 2

    def test_wrong_arity_rejected(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": [[0, 0]]}
        assert main(["verify", _write(tmp_path, "arity.json", payload)]) == 2

    def test_out_of_range_coordinates_rejected(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": [[0], [5]]}
        assert main(["verify", _write(tmp_path, "range.json", payload)]) == 2
        payload = {"group": {"orders": [4]}, "S": [[0], [-1]]}
        assert main(["verify", _write(tmp_path, "neg.json", payload)]) == 2


class TestTables:
    def test_nu_table(self, tmp_path, capsys):
        assert main(["nu", _write(tmp_path, "i.json", Z4_INSTANCE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0\t(0)\t2", "1\t(1)\t1", "2\t(2)\t0", "3\t(3)\t1"]

    def test_spectrum_table(self, tmp_path, capsys):
        assert main(["spectrum", _write(tmp_path, "i.json", Z4_INSTANCE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["0\t(0)\t4", "1\t(1)\t2", "2\t(2)\t0", "3\t(3)\t2"]

    def test_spectrum_marks_non_integers(self, tmp_path, capsys):
        payload = {"group": {"orders": [8]}, "S": [[0], [1]]}
        assert main(["spectrum", _write(tmp_path, "z8.json", payload)]) == 0
        out = capsys.readouterr().out
        assert "non-integer" in out

    def test_tables_are_deterministic(self, tmp_path, capsys):
        path = _write(tmp_path, "i.json", Z4_INSTANCE)
        main(["nu", path])
        first = capsys.readouterr().out
        main(["nu", path])
        assert capsys.readouterr().out == first

    def test_empty_s_rejected(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": []}
        assert main(["nu", _write(tmp_path, "empty.json", payload)]) == 2


class TestPrimitive:
    def test_shipped_set_is_primitive(self, theorem21_path, capsys):
        assert main(["primitive", str(theorem21_path)]) == 0
        assert "primitive" in capsys.readouterr().out

    def test_subgroup_shows_both_witnesses(self, tmp_path, capsys):
        payload = {"group": {"orders": [4]}, "S": [[0], [2]]}
        assert main(["primitive", _write(tmp_path, "i.json", payload)]) == 1
        out = capsys.readouterr().out
        assert "coset of the proper subgroup [0, 2]" in out
        assert "union of cosets of the nontrivial subgroup [0, 2]" in out

    def test_whole_group_not_primitive(self, tmp_path):
        payload = {"group": {"orders": [4]}, "S": [[0], [1], [2], [3]]}
        assert main(["primitive", _write(tmp_path, "i.json", payload)]) == 1


class TestSearch:
    def test_z4_search_writes_certificates(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["search", "--group", "4", "--size", "2", "--mode", "pair",
                     "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["status"] == "complete" and stats["complete"]
        assert stats["hits_found"] == 1
        cert_files = sorted(p.name for p in out.glob("cert_*.json"))
        assert cert_files == ["cert_0000.json"]
        assert main(["verify", str(out / "cert_0000.json")]) == 0

    def test_z22_search_finds_nothing(self, tmp_path):
        out = tmp_path / "results"
        assert main(["search", "--group", "2,2", "--size", "2", "--mode", "pair",
                     "--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["hits_found"] == 0

    def test_invalid_size_is_exit_2(self, tmp_path, capsys):
        assert main(["search", "--group", "8,8", "--size", "7",
                     "--out", str(tmp_path / "x")]) == 2
        assert "size law" in capsys.readouterr().err

    def test_bad_group_is_exit_2(self, tmp_path):
        assert main(["search", "--group", "4,banana", "--size", "2",
                     "--out", str(tmp_path / "x")]) == 2

    def test_budget_stop_is_exit_3(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["search", "--group", "2,8", "--size", "4", "--budget", "40",
                     "--checkpoint", str(tmp_path / "ck.json"), "--out", str(out)])
        assert code == 3
        stats = json.loads((out / "stats.json").read_text())
        assert stats["status"] == "budget_stopped" and not stats["complete"]
        assert "no non-existence claim" in capsys.readouterr().out

    def test_budget_spellings(self, tmp_path):
        out = tmp_path / "r1"
        assert main(["search", "--group", "4", "--size", "2", "--budget", "10^3",
                     "--out", str(out)]) == 0
        out2 = tmp_path / "r2"
        assert main(["search", "--group", "4", "--size", "2", "--budget", "1e3",
                     "--out", str(out2)]) == 0
        assert main(["search", "--group", "4", "--size", "2", "--budget", "soon",
                     "--out", str(tmp_path / "r3")]) == 2

    def test_certificates_byte_identical_modulo_timestamp(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["search", "--group", "4,4", "--size", "4", "--mode", "pair",
                         "--out", str(out)]) == 0
        names = sorted(p.name for p in out_a.glob("cert_*.json"))
        assert names == sorted(p.name for p in out_b.glob("cert_*.json")) and names
        for name in names:
            a = _strip_timestamp(json.loads((out_a / name).read_text()))
            b = _strip_timestamp(json.loads((out_b / name).read_text()))
            assert a == b

    def test_jobs_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FD_THREADS", "2")
        from fdual.cli import _default_jobs

        assert _default_jobs() == 2
        assert main(["search", "--group", "4", "--size", "2",
                     "--out", str(tmp_path / "r")]) == 0
        monkeypatch.delenv("FD_THREADS")
        assert _default_jobs() == 1

    @pytest.mark.parametrize("value", ["not-a-number", "0", "-3", "1.5"])
    def test_bad_jobs_env_is_exit_2(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("FD_THREADS", value)
        assert main(["search", "--group", "4", "--size", "2",
                     "--out", str(tmp_path / "r")]) == 2
        assert "FD_THREADS" in capsys.readouterr().err
        # an explicit --jobs does not read the environment
        assert main(["search", "--group", "4", "--size", "2", "--jobs", "1",
                     "--out", str(tmp_path / "r2")]) == 0

    @pytest.mark.parametrize("budget", [
        "1e400", "inf", "10^-1", "1e-3",
        # above 2^63 - 1; the huge exponents are refused without the power
        "10^100000000", "10^10000000", "2^64", "2^63",
        "9223372036854775808", "1e19",
    ])
    def test_unrepresentable_budget_is_exit_2(self, tmp_path, capsys, budget):
        assert main(["search", "--group", "4", "--size", "2", "--budget", budget,
                     "--out", str(tmp_path / "r")]) == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_spellings(self):
        assert _parse_budget("10^6") == 10 ** 6
        assert _parse_budget("1e3") == 1000
        assert _parse_budget("10^18") == 10 ** 18
        assert _parse_budget("9223372036854775807") == 2 ** 63 - 1
        assert _parse_budget("1^100000000") == 1


class TestParserReuse:
    def test_repeated_calls_match_fresh_parsers(self, theorem21_path, tmp_path, capsys):
        # main builds its parser once; calls in one process, including ones
        # that fail in argparse (exit 2 by SystemExit) or in the command,
        # must behave as if each had a parser of its own
        from fdual import cli

        z8 = _write(tmp_path, "z8.json", {"group": {"orders": [8]}, "S": [[0], [1]]})
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        calls = [
            ["verify", str(theorem21_path)],
            ["spectrum", z8],
            ["search", "--group", "4"],  # missing --size: argparse error
            ["nu", z8],
            ["verify", str(garbage)],
            ["search", "--group", "4", "--size", "2", "--budget", "2^64",
             "--out", str(tmp_path / "r")],
            ["primitive", z8],
            ["search", "--group", "4", "--size", "2", "--out", str(tmp_path / "r")],
            ["verify", "--no-such-flag", z8],
            ["spectrum", z8],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(argv))
        cli._parser.cache_clear()
        reused = [run(argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 2, 0, 0, 2, 0]
