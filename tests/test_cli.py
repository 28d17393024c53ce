from __future__ import annotations

import json
import os
import subprocess
import sys

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


class TestStrictInput:
    """A certificate is read as strictly as an instance file: coordinates
    and pairing entries that one path rejects, the other rejects too."""

    @staticmethod
    def _document(tmp_path, kind):
        if kind == "instance":
            return dict(Z4_INSTANCE, pairing=[[1]])
        path = tmp_path / "cert.json"
        instance = _write(tmp_path, "sd.json", Z4_INSTANCE)
        assert main(["verify", instance, "--emit-certificate", str(path)]) == 0
        data = json.loads(path.read_text())
        assert main(["verify", str(path)]) == 0
        return data

    @pytest.mark.parametrize("kind", ["instance", "certificate"])
    @pytest.mark.parametrize(
        "coords",
        [[[0], [5]], [[0.0], [1.9]], [["0"], ["1"]], [[False], [True]]],
        ids=["out-of-range", "float", "string", "bool"],
    )
    def test_bad_coordinates_are_exit_2(self, tmp_path, capsys, kind, coords):
        data = self._document(tmp_path, kind)
        data["S" if kind == "instance" else "s"] = coords
        capsys.readouterr()
        assert main(["verify", _write(tmp_path, "bad.json", data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["instance", "certificate"])
    @pytest.mark.parametrize("entry", [1.5, "1", True], ids=["float", "string", "bool"])
    def test_bad_pairing_entries_are_exit_2(self, tmp_path, capsys, kind, entry):
        data = self._document(tmp_path, kind)
        data["pairing"] = [[entry]]
        capsys.readouterr()
        assert main(["verify", _write(tmp_path, "bad.json", data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "pairing entries must be integers" in captured.err

    @pytest.mark.parametrize("field,value", [
        ("s_size", "2"), ("s_size", 2.7), ("s_primitive", "false"),
        ("nu_t", [2.0, 1, 0, 1]), ("spectrum", [4.0, 2, 0, 2]),
    ], ids=["size-string", "size-float", "flag-string", "nu-float", "spectrum-float"])
    def test_loose_certificate_fields_are_exit_2(self, tmp_path, capsys, field, value):
        # sizes and table entries must be JSON integers, flags JSON booleans
        data = self._document(tmp_path, "certificate")
        data[field] = value
        capsys.readouterr()
        assert main(["verify", _write(tmp_path, "bad.json", data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad certificate: ")

    def test_instance_messages_name_the_set(self, tmp_path, capsys):
        payload = {"group": {"orders": [4]}, "S": [[0], [1.5]]}
        assert main(["verify", _write(tmp_path, "float.json", payload)]) == 2
        assert capsys.readouterr().err == "error: S coordinates must be integers, got [1.5]\n"


def test_verify_does_not_import_search(tmp_path):
    path = _write(tmp_path, "sd.json", Z4_INSTANCE)
    code = (
        "import sys\n"
        "from fdual import cli\n"
        f"assert cli.main(['verify', {path!r}]) == 0\n"
        "assert 'fdual.search' not in sys.modules, 'fdual verify imported fdual.search'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_and_search_do_not_import_numpy_ma(theorem21_path):
    # numpy imports numpy.ma lazily, at a cost of about 25 ms, on the first
    # call of some functions (np.unique without return_index among them);
    # neither fdual verify nor a search may pay it
    code = (
        "import sys\n"
        "from fdual import cli, search\n"
        "from fdual.abelian import GroupSpec\n"
        f"assert cli.main(['verify', {str(theorem21_path)!r}]) == 0\n"
        "config = search.SearchConfig(spec=GroupSpec((2, 4, 4)), target_size=8, mode='pair')\n"
        "assert len(search.run_search(config).certificates) == 1\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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

    @pytest.mark.parametrize("message", ["Unable to allocate 2.91 TiB for an array", ""])
    def test_out_of_memory_is_exit_2(self, tmp_path, capsys, monkeypatch, message):
        # an instance too large to reduce is exit 2 with one error line,
        # not exit 1 (a verdict) with a traceback
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(duality, "_residue_rows", no_memory)
        assert main(["spectrum", _write(tmp_path, "i.json", Z4_INSTANCE)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = f"error: out of memory: {message}" if message else "error: out of memory"
        assert captured.err.splitlines() == [expected]

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

    _COSET = "not primitive: contained in a coset of the proper subgroup "
    _UNION = "not primitive: union of cosets of the nontrivial subgroup "

    @pytest.mark.parametrize("orders, s, code, out", [
        ([1], [[0]], 0, "primitive\n"),
        ([4], [[0], [1]], 0, "primitive\n"),
        ([2, 4], [[0, 0], [0, 1]], 1, _COSET + "[0, 1, 2, 3]\n"),
        ([2, 4], [[0, 0], [1, 0], [0, 1], [1, 1]], 1, _UNION + "[0, 4]\n"),
        ([4], [[0], [2]], 1, _COSET + "[0, 2]\n" + _UNION + "[0, 2]\n"),
        ([3, 5, 9], [[0, 0, 0], [1, 0, 3], [2, 0, 6], [0, 0, 3]], 1,
         _COSET + "[0, 3, 6, 45, 48, 51, 90, 93, 96]\n"),
        ([17, 17], [[0, 0], [0, 1], [1, 0], [2, 5], [7, 3]], 0, "primitive\n"),
        ([16, 32], [[0, 0], [2, 4], [4, 8], [10, 20]], 1,
         _COSET + "[0, 68, 136, 204, 272, 340, 408, 476]\n"),
        ([2, 256], [[0, 0], [1, 0], [0, 1], [1, 1], [0, 5], [1, 5]], 1, _UNION + "[0, 256]\n"),
        ([64, 64], [[0, 0], [0, 32], [32, 0], [32, 32]], 1,
         _COSET + "[0, 32, 2048, 2080]\n" + _UNION + "[0, 32, 2048, 2080]\n"),
    ], ids=["trivial", "primitive", "coset", "union", "both", "coset-3x5x9",
            "primitive-289", "coset-512", "union-512", "both-4096"])
    def test_output_is_pinned(self, tmp_path, capsys, orders, s, code, out):
        # every branch of the report, in groups up to and beyond the
        # search's |G| <= 256, byte for byte
        payload = {"group": {"orders": orders}, "S": s}
        assert main(["primitive", _write(tmp_path, "i.json", payload)]) == code
        assert capsys.readouterr() == (out, "")


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

    @pytest.mark.parametrize("flag,value,named", [
        ("--jobs", "0", "jobs"), ("--jobs", "-2", "jobs"), ("--frontier-depth", "0", "depth"),
        ("--group", "512", "searches support |G| <= 256, got 512"),
    ])
    def test_bad_search_option_writes_nothing(self, tmp_path, capsys, flag, value, named):
        # refused with the configuration checks, before --out is created;
        # the last --group given is the one searched
        out = tmp_path / "r"
        assert main(["search", "--group", "4", "--size", "2", flag, value,
                     "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_deep_frontier_is_exit_2(self, tmp_path):
        # depth 7 of a size-8 search of Z4 x Z2 x Z8 is C(62, 6) = 61,474,519
        # tasks; the search is refused once the list passes 2^20 of them
        # (about 2 s and 140 MB), before the checkpoint is first written
        ck = tmp_path / "ck.json"
        args = ["search", "--group", "4,2,8", "--size", "8", "--symmetry", "translation",
                "--frontier-depth", "7", "--budget", "777", "--checkpoint", str(ck),
                "--out", str(tmp_path / "r")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-m", "fdual.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: frontier_depth 7 gives more than 1048576 tasks; choose a smaller "
            "frontier_depth\n")
        assert not ck.exists()

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

    def test_parse_budget_spellings(self):
        assert _parse_budget("10^6") == 10 ** 6
        assert _parse_budget("1e3") == 1000
        assert _parse_budget("10^18") == 10 ** 18
        assert _parse_budget("9223372036854775807") == 2 ** 63 - 1
        assert _parse_budget("1^100000000") == 1


class TestOutputPaths:
    """An output path that cannot be written is exit 2 and one error line
    naming it, never a traceback (exit 1 is reserved for a failed check)."""

    def _refused(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0], err
        return err[0]

    def test_certificate_in_missing_directory(self, theorem21_path, tmp_path, capsys):
        path = tmp_path / "missing" / "c.json"
        self._refused(capsys, ["verify", str(theorem21_path), "--emit-certificate", str(path)], path)
        assert not path.parent.exists()

    def test_checkpoint_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        # the first checkpoint write fails, before any task runs
        from fdual import search

        monkeypatch.setattr(search, "_run_task", None)
        path = tmp_path / "missing" / "ck.json"
        argv = ["search", "--group", "4", "--size", "2", "--checkpoint", str(path),
                "--out", str(tmp_path / "out")]
        assert self._refused(capsys, argv, path).startswith(f"error: cannot write checkpoint {path}")
        assert not path.parent.exists()

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("kept\n")
        self._refused(capsys, ["search", "--group", "4", "--size", "2", "--out", str(path)], path)
        assert path.read_text() == "kept\n"


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
