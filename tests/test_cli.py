import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import balancelat
from balancelat import cli
from balancelat.cli import CALLS, main
from balancelat.errors import InvalidParams
from balancelat.generators import gen_basis, gen_ellipsoid, gen_nbp
from balancelat.linalg import determinant
from balancelat.rng import SeededStream, splitmix64
from balancelat.serialize import (
    basis_from_doc,
    basis_to_doc,
    ellipsoid_from_doc,
    ellipsoid_to_doc,
    instance_from_doc,
    instance_to_doc,
)


@pytest.fixture
def bounded_draws(monkeypatch):
    """Fail instead of hanging once a seeded stream has drawn 10 000 words."""
    next_word = SeededStream.next_word
    drawn = [0]

    def bounded(self):
        drawn[0] += 1
        if drawn[0] > 10_000:
            raise RuntimeError("the seeded stream kept drawing")
        return next_word(self)

    monkeypatch.setattr(SeededStream, "next_word", bounded)


class TestRng:
    def test_splitmix_reference_values(self):
        # reference outputs of the standard SplitMix64 finalizer on the
        # sequence seeded with 1234567 (cross-checked against the C version)
        s = SeededStream(1234567)
        words = [s.next_word() for _ in range(3)]
        assert words == [s.word(i) for i in range(3)]
        assert all(0 <= w < 2**64 for w in words)
        assert splitmix64(0) == splitmix64(0)  # pure function

    def test_counter_based_access_is_stateless(self):
        a = SeededStream(42)
        b = SeededStream(42)
        assert [a.next_word() for _ in range(5)] == [b.word(i) for i in range(5)]

    def test_int_range(self):
        s = SeededStream(7)
        vals = [s.next_int(-3, 3) for _ in range(200)]
        assert set(vals) == set(range(-3, 4))

    def test_empty_int_range_raises(self, bounded_draws):
        with pytest.raises(InvalidParams):
            SeededStream(7).next_int(3, -3)


class TestGenerators:
    def test_nbp_deterministic(self):
        a = gen_nbp(6, 9, 30)
        b = gen_nbp(6, 9, 30)
        assert a == b
        assert all(0 <= e <= 1 for e in a.a)

    def test_nbp_signed(self):
        inst = gen_nbp(8, 3, 30, signed=True)
        assert all(-1 <= e <= 1 for e in inst.a)
        assert any(e < 0 for e in inst.a)

    def test_basis_full_rank(self):
        basis = gen_basis(4, 2)
        assert determinant(basis.B) != 0

    def test_basis_span_below_one_raises(self, bounded_draws):
        # span 0 draws only zero matrices, a negative span an empty range
        for span in (0, -3):
            with pytest.raises(InvalidParams):
                gen_basis(3, 1, span)

    def test_ellipsoid_volume_hypothesis(self):
        for seed in range(5):
            e = gen_ellipsoid(3, seed)
            prod = Fraction(1)
            for l in e.lengths:
                prod *= l
            assert prod >= 1
            assert abs(determinant(e.A)) == 1 / prod
            assert e.lengths == sorted(e.lengths)


class TestSerialize:
    def test_instance_roundtrip(self):
        inst = gen_nbp(5, 11, 30, signed=True)
        doc = instance_to_doc(inst, 30)
        assert instance_from_doc(doc) == inst
        # decimal strings are exact
        assert all("/" not in s for s in doc["a"])

    def test_basis_roundtrip(self):
        basis = gen_basis(3, 5)
        assert basis_from_doc(basis_to_doc(basis)).B == basis.B

    def test_ellipsoid_roundtrip(self):
        e = gen_ellipsoid(2, 1)
        back = ellipsoid_from_doc(ellipsoid_to_doc(e))
        assert back.A == e.A
        assert back.lengths == e.lengths


TO_MINKOWSKI = ["reduce", "to-minkowski", "--oracle", "kk"]
# (case id, command, input document, message on standard error)
BAD_DOCUMENTS = [
    ("instance-n-not-an-integer", ["solve", "--algo", "kk"],
     {"n": "x", "precision_bits": 30, "a": ["0.5"]}, "malformed instance document"),
    ("basis-n-not-an-integer", ["lll"], {"n": "x", "columns": [["1"]]},
     "malformed basis document"),
    ("ellipsoid-n-not-an-integer", TO_MINKOWSKI, {"n": "x", "A": [["1"]]},
     "malformed ellipsoid document"),
    ("ellipsoid-ragged-rows", TO_MINKOWSKI, {"n": 2, "A": [["1", "0"], ["0"]]},
     "malformed ellipsoid document: ragged rows"),
    ("ellipsoid-dimension-0", TO_MINKOWSKI, {"n": 0, "A": []},
     "ellipsoid dimension must be >= 1"),
]


class TestCliCommands:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_gen_deterministic_bytes(self, capsys):
        code1, out1 = self.run(capsys, "gen", "nbp", "--n", "4", "--seed", "7")
        code2, out2 = self.run(capsys, "gen", "nbp", "--n", "4", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_solve_brute_force(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "nbp", "--n", "3", "--seed", "1")
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(out)
        code, out = self.run(
            capsys, "solve", "--algo", "brute-force", "--input", str(inst_file)
        )
        assert code == 0
        report = json.loads(out)
        assert report["claimed_bound"] is None
        assert report["bound_satisfied"] is True
        assert report["wall_time_ms"] is None

    def test_solve_kk_cancelling_pair(self, tmp_path, capsys):
        doc = {"n": 2, "precision_bits": 4, "a": ["0.5", "0.5"]}
        f = tmp_path / "i.json"
        f.write_text(json.dumps(doc))
        code, out = self.run(capsys, "solve", "--algo", "kk", "--input", str(f))
        assert code == 0
        assert json.loads(out)["solution"]["error"] == "0"

    def test_solve_reduction_bound_audit(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "nbp", "--n", "6", "--seed", "4")
        f = tmp_path / "i.json"
        f.write_text(out)
        code, out = self.run(
            capsys, "reduce", "to-nbp", "--oracle", "exact-mink", "--k", "1",
            "--input", str(f),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["audit"]["formula"] == "minkowski-to-nbp"
        assert doc["audit"]["claimed_bound"] == "3/16"

    def test_reduce_to_minkowski(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "ellipsoid", "--n", "2", "--seed", "3")
        f = tmp_path / "e.json"
        f.write_text(out)
        code, out = self.run(
            capsys, "reduce", "to-minkowski", "--oracle", "mitm", "--Q", "256",
            "--precision-bits", "80", "--input", str(f),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] in ("integer-point", "pipeline")
        assert any(doc["x"])

    def test_lll_command(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "basis", "--n", "4", "--seed", "2")
        f = tmp_path / "b.json"
        f.write_text(out)
        code, out = self.run(capsys, "lll", "--input", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["size_reduced"] and doc["lovasz_ok"]

    def test_verify_roundtrip_and_mismatch(self, tmp_path, capsys):
        code, inst_text = self.run(capsys, "gen", "nbp", "--n", "3", "--seed", "8")
        inst_file = tmp_path / "i.json"
        inst_file.write_text(inst_text)
        code, solve_out = self.run(
            capsys, "solve", "--algo", "brute-force", "--input", str(inst_file)
        )
        sol = json.loads(solve_out)["solution"]
        sol_file = tmp_path / "s.json"
        sol_file.write_text(json.dumps(sol))
        code, _ = self.run(
            capsys, "verify", "--instance", str(inst_file), "--solution", str(sol_file)
        )
        assert code == 0
        sol["error"] = "1/7"
        sol_file.write_text(json.dumps(sol))
        code, _ = self.run(
            capsys, "verify", "--instance", str(inst_file), "--solution", str(sol_file)
        )
        assert code == 2

    def test_bench_csv(self, capsys):
        code, out = self.run(
            capsys, "bench", "--sizes", "16,18", "--seeds", "2",
            "--algos", "pigeonhole,kk",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,seed,algorithm")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_bench_adversarial_marks_violations(self, capsys):
        code, out = self.run(
            capsys, "bench", "--sizes", "6", "--seeds", "2",
            "--algos", "reduce-mink", "--adversarial",
        )
        assert code == 2
        assert "bound-violation" in out

    def test_invalid_input_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code = main(["solve", "--algo", "kk", "--input", str(f)])
        assert code == 3

    def test_huge_exponent_exit_code(self, tmp_path, capsys):
        f = tmp_path / "exp.json"
        f.write_text(json.dumps({"a": ["0.5", "1e999999999"], "n": 2, "precision_bits": 30}))
        code = main(["solve", "--algo", "kk", "--input", str(f)])
        assert code == 3
        assert "exponent" in capsys.readouterr().err

    def test_unwritable_rational_exit_code(self, tmp_path, capsys):
        # parses (exponent within the cap) but has more decimal digits than
        # CPython will convert back to a string
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"columns": [["1e5000", "0"], ["0", "1"]], "n": 2}))
        code = main(["lll", "--input", str(f)])
        assert code == 3
        assert "decimal digits" in capsys.readouterr().err
        # dyadic entries of about 0.7 * precision_bits digits
        code = main(["gen", "nbp", "--n", "2", "--seed", "1", "--precision-bits", "20000"])
        assert code == 3
        assert "decimal digits" in capsys.readouterr().err

    def test_bad_budget_variable_exit_code(self, tmp_path, capsys, monkeypatch):
        code, out = self.run(capsys, "gen", "nbp", "--n", "4", "--seed", "3")
        f = tmp_path / "i.json"
        f.write_text(out)
        for value in ("abc", "-5", "0"):
            monkeypatch.setenv("BALANCELAT_BUDGET", value)
            code = main(["solve", "--algo", "brute-force", "--input", str(f)])
            err = capsys.readouterr().err
            assert code == 3
            assert "BALANCELAT_BUDGET" in err and "exceeded budget" not in err

    def test_precision_bits_below_one_exit_code(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "ellipsoid", "--n", "2", "--seed", "3")
        f = tmp_path / "e.json"
        f.write_text(out)
        for bits in ("0", "-1"):
            for argv in (
                ["gen", "nbp", "--n", "4", "--seed", "1", "--precision-bits", bits],
                ["reduce", "to-minkowski", "--oracle", "mitm", "--precision-bits", bits,
                 "--input", str(f)],
                ["bench", "--sizes", "6", "--seeds", "1", "--algos", "kk",
                 "--precision-bits", bits],
            ):
                assert main(argv) == 3
                assert "precision_bits must be >= 1" in capsys.readouterr().err

    def test_solve_report_byte_reproducible(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "nbp", "--n", "5", "--seed", "77")
        f = tmp_path / "i.json"
        f.write_text(out)
        outs = []
        for _ in range(2):
            code, text = self.run(
                capsys, "solve", "--algo", "mitm", "--input", str(f)
            )
            assert code == 0
            outs.append(text)
        assert outs[0] == outs[1]

    def test_solve_via_reduction_algo(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "nbp", "--n", "6", "--seed", "12")
        f = tmp_path / "i.json"
        f.write_text(out)
        code, out = self.run(
            capsys, "reduce", "to-nbp", "--oracle", "exact-mink", "--k", "1",
            "--input", str(f),
        )
        assert code == 0
        audit = json.loads(out)["audit"]
        assert audit["claimed_bound"] == "3/16"
        assert Fraction(audit["achieved_error"]) <= Fraction(audit["claimed_bound"])

    def test_usage_error_exit_code(self, capsys):
        for argv in (
            ["solve", "--algo", "nope"],
            ["solve", "--algo", "kk", "--oracle", "lll"],
            ["solve", "--algo", "kk", "--full"],
            ["frobnicate"],
        ):
            assert main(argv) == 3
            assert "error:" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_bench_bad_sizes_exit_code(self, capsys):
        assert main(["bench", "--sizes", "a", "--algos", "kk"]) == 3
        captured = capsys.readouterr()
        assert "--sizes" in captured.err and captured.out == ""

    def test_bench_unknown_algorithm_exit_code(self, capsys):
        assert main(["bench", "--sizes", "6", "--seeds", "1", "--algos", "kk,nope"]) == 3
        captured = capsys.readouterr()
        assert "unknown bench algorithm 'nope'" in captured.err and captured.out == ""

    def test_pigeons_below_one_exit_code(self, tmp_path, capsys):
        # 0 is refused like -5, not read as the default n^3
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "16", "--seed", "0")[1])
        for pigeons in ("0", "-5"):
            assert main(["solve", "--algo", "pigeonhole", "--pigeons", pigeons,
                         "--input", str(f)]) == 3
            captured = capsys.readouterr()
            assert "pigeon count must be >= 1" in captured.err and captured.out == ""

    def test_bench_seeds_below_one_exit_code(self, capsys):
        for seeds in ("0", "-2"):
            assert main(["bench", "--sizes", "6", "--seeds", seeds, "--algos", "kk"]) == 3
            captured = capsys.readouterr()
            assert "--seeds must be >= 1" in captured.err and captured.out == ""

    def test_full_pipeline_says_it_ignores_k(self, tmp_path, capsys):
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "9", "--seed", "5", "--signed")[1])
        argv = ["reduce", "to-nbp", "--oracle", "exact-svp", "--full", "--input", str(f)]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(argv + ["--k", "7"]) == 0
        with_k = capsys.readouterr()
        assert with_k.out == plain.out
        assert "k = max(1, ceil(3*rho)); --k is ignored" in with_k.err
        # without --full the default k stays 1
        assert main(["reduce", "to-nbp", "--oracle", "exact-svp", "--input", str(f)]) == 0
        default_out = capsys.readouterr().out
        assert main(["reduce", "to-nbp", "--oracle", "exact-svp", "--k", "1",
                     "--input", str(f)]) == 0
        assert capsys.readouterr().out == default_out

    def test_gen_basis_span_below_one_exit_code(self, capsys, bounded_draws):
        for span in ("0", "-3"):
            assert main(["gen", "basis", "--n", "3", "--seed", "1", "--span", span]) == 3
            assert "span must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, message", [b[1:] for b in BAD_DOCUMENTS],
                             ids=[b[0] for b in BAD_DOCUMENTS])
    def test_malformed_document_exit_code(self, command, doc, message, tmp_path, capsys):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        assert main(command + ["--input", str(f)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_malformed_solution_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(self.run(capsys, "gen", "nbp", "--n", "2", "--seed", "1")[1])
        sol = tmp_path / "s.json"
        sol.write_text(json.dumps({"x": ["a", 1], "k": 1, "error": "0"}))
        assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 3
        captured = capsys.readouterr()
        assert "malformed solution document" in captured.err and captured.out == ""

    def test_directory_input_exit_code(self, tmp_path, capsys):
        assert main(["lll", "--input", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "Is a directory" in captured.err and captured.out == ""

    def test_bench_error_regimes(self, capsys):
        # KK's achieved error beats the pigeonhole *guarantee* in the median
        # (the achieved pigeonhole min-gap at N = n^3 is far below both)
        code, out = self.run(
            capsys, "bench", "--sizes", "16,36", "--seeds", "5",
            "--algos", "pigeonhole,kk",
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        kk_err = sorted(Fraction(r[3]) for r in rows if r[2] == "kk")
        pig_bound = sorted(Fraction(r[5]) for r in rows if r[2] == "pigeonhole")
        assert kk_err[len(kk_err) // 2] < pig_bound[len(pig_bound) // 2]

    def test_single_bench_cell_matches_solve(self, tmp_path, capsys):
        code, out = self.run(
            capsys, "bench", "--sizes", "16", "--seeds", "1", "--algos", "pigeonhole"
        )
        row = out.strip().splitlines()[1].split(",")
        code, gen_out = self.run(capsys, "gen", "nbp", "--n", "16", "--seed", "0")
        f = tmp_path / "i.json"
        f.write_text(gen_out)
        code, solve_out = self.run(
            capsys, "solve", "--algo", "pigeonhole", "--input", str(f)
        )
        assert json.loads(solve_out)["achieved_error"] == row[3]


def fresh_run(argv):
    """Exit code and stdout of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(balancelat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "balancelat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout


# the flag that takes each command's CALLS keys; bench takes a list, checked below
CHOICE_FLAGS = {
    "solve": ["solve", "--algo"],
    "to-nbp": ["reduce", "to-nbp", "--oracle"],
    "to-nbp --full": ["reduce", "to-nbp", "--full", "--oracle"],
    "to-minkowski": ["reduce", "to-minkowski", "--oracle"],
}
SUBCOMMANDS = ["gen", "solve", "reduce", "reduce to-nbp", "reduce to-minkowski", "lll",
               "verify", "bench"]


class TestSharedParser:
    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        f = tmp_path / "i.json"
        assert main(["gen", "nbp", "--n", "4", "--seed", "1", "--out", str(f)]) == 0
        assert main(["solve", "--algo", "kk", "--input", str(f)]) == 0
        assert main(["solve", "--algo", "nope"]) == 3
        assert main(["reduce", "to-nbp", "--help"]) == 0
        capsys.readouterr()
        assert built == []

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        f, g = tmp_path / "i16.json", tmp_path / "i9.json"
        assert main(["gen", "nbp", "--n", "16", "--seed", "5", "--out", str(f)]) == 0
        assert main(["gen", "nbp", "--n", "9", "--seed", "5", "--signed", "--out", str(g)]) == 0
        solve = ["solve", "--algo", "pigeonhole", "--input", str(f)]
        assert main(solve + ["--timing", "--pigeons", "100"]) == 0
        capsys.readouterr()
        assert main(solve) == 0
        after = capsys.readouterr().out
        assert json.loads(after)["wall_time_ms"] is None
        assert (0, after) == fresh_run(solve)

        to_nbp = ["reduce", "to-nbp", "--oracle", "exact-svp", "--input", str(g)]
        assert main(to_nbp + ["--full", "--k", "2"]) == 0
        capsys.readouterr()
        assert main(to_nbp) == 0
        assert (0, capsys.readouterr().out) == fresh_run(to_nbp)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_exits_0(self, command, capsys):
        assert main(command.split() + ["--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: balancelat {command} ")

    @pytest.mark.parametrize("command, name", [(c, n) for c in CHOICE_FLAGS for n in CALLS[c]])
    def test_calls_key_is_a_choice(self, command, name):
        args = cli.PARSER.parse_args(CHOICE_FLAGS[command] + [name])
        assert (args.algo if command == "solve" else args.oracle) == name

    def test_bench_runs_every_calls_key(self, capsys):
        assert set(CALLS) == set(CHOICE_FLAGS) | {"bench"}
        # n = 10 is the smallest size whose n^3 pigeons fit in 2^n subsets
        argv = ["bench", "--sizes", "10", "--seeds", "1", "--algos", ",".join(CALLS["bench"])]
        assert main(argv) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
        assert sorted((r[2], r[-1]) for r in rows) == sorted((a, "ok") for a in CALLS["bench"])


# Exit code and stdout sha256 of CLI paths that the benchmark corpus does not
# run, recorded before solve, bench and reduce shared one dispatch table.
# {name} in an argv stands for the document ``gen`` writes from GOLDEN_INPUTS.
GOLDEN_INPUTS = {
    "nbp8": ["nbp", "--n", "8", "--seed", "3"],
    "nbp9": ["nbp", "--n", "9", "--seed", "5", "--signed"],
    "nbp16": ["nbp", "--n", "16", "--seed", "5", "--signed"],
    "point-ellipsoid": ["ellipsoid", "--n", "2", "--seed", "1"],  # integer-point branch
    "rounded-ellipsoid": ["ellipsoid", "--n", "2", "--seed", "16"],  # pipeline branch
}
GOLDEN = [
    ("bench --sizes 6,7 --seeds 2 --algos reduce-mink", 0,
     "9a5b059e6ad4a4c823a04ad664516792608254308c84d9cd71b113df61b1a15e"),
    ("bench --sizes 6,7 --seeds 2 --algos reduce-mink --adversarial", 2,
     "f8969f1e2f49d9d14d35fee91b1f9ae2a7eec8b0e2bc3fe37b2e7a4c26a8a8fc"),
    ("bench --sizes 8,10 --seeds 1 --algos brute-force,kk,mitm,pigeonhole --k 2", 0,
     "22fd33250a4c5de7b9f77436354c3ccd74de89f6c5ea194d5b1af839171b18b7"),
    ("solve --algo pigeonhole --pigeons 100 --input {nbp8}", 0,
     "be477480af37ced94f57a21725920b9211dd1525f37b574986fbddb527a08c97"),
    ("reduce to-nbp --oracle exact-svp --k 2 --input {nbp9}", 0,
     "e2c2c8715d9cdf92b5106c3bd04f15047b64f543f3894475359d1ac48327d0b5"),
    ("reduce to-nbp --oracle exact-svp --k 2 --full --input {nbp9}", 0,
     "8529c4731f2fd49ee719040549461bdeb4e524f5e14d8151949aaa27100820b4"),
    ("reduce to-nbp --oracle exact-svp --k 2 --full --input {nbp16}", 0,
     "f86b26237ccb3bdd4c1df08d6a9922816d77db3fbdfaf451a3d131890f5a62ed"),
    ("reduce to-nbp --oracle lll --k 2 --input {nbp9}", 0,
     "2de3c34c5f1731e44a745d15aea54e025419c1911f35ac69199853235d10433b"),
    ("reduce to-nbp --oracle lll --k 2 --input {nbp16}", 0,
     "bb7ec928b4e4d20b42a55cdddac2217a7bba840d23a413074a5fcad79aa853a8"),
    ("reduce to-nbp --oracle lll --k 2 --full --input {nbp9}", 0,  # Karmarkar-Karp fallback
     "557e1d83ce74743d19ad5f31610fcf45676c822006a14eea7abe8b420ef8ec4a"),
    ("reduce to-minkowski --oracle kk --input {point-ellipsoid}", 0,
     "c71e61c1335a1e393d6c84c84e8a4f0a68b4d494ce70f0ba03c7027dc8d2f0c3"),
    ("reduce to-minkowski --oracle mitm --input {point-ellipsoid}", 0,
     "c71e61c1335a1e393d6c84c84e8a4f0a68b4d494ce70f0ba03c7027dc8d2f0c3"),
    ("reduce to-minkowski --oracle pigeonhole --input {point-ellipsoid}", 0,
     "c71e61c1335a1e393d6c84c84e8a4f0a68b4d494ce70f0ba03c7027dc8d2f0c3"),
    ("reduce to-minkowski --oracle kk --input {rounded-ellipsoid}", 3,  # delta = 1 is too weak
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reduce to-minkowski --oracle mitm --Q 16 --input {rounded-ellipsoid}", 0,
     "7e5f310f5432e69f1c8f472d7340705e0f7a31d7bec18fc17cd54664e1eef14b"),
    ("reduce to-minkowski --oracle pigeonhole --input {rounded-ellipsoid}", 0,
     "09e916be37bcfd4f9264e473caba168ac4025d29b0f6a7fbb0e351057cb8442f"),
]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in GOLDEN_INPUTS.items():
        paths[name] = str(workdir / f"{name}.json")
        if main(["gen", *argv, "--out", paths[name]]) != 0:
            raise RuntimeError(f"gen {name} failed")
    return paths


@pytest.mark.parametrize("line, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_cli_report(line, code, digest, golden_inputs, capsys):
    argv = [arg.format(**golden_inputs) for arg in line.split()]
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
