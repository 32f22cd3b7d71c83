import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import balancelat
from balancelat import cli, generators
from balancelat.cli import CALLS, main
from balancelat.errors import InternalContradiction, InvalidParams
from balancelat.generators import gen_basis, gen_ellipsoid, gen_nbp
from balancelat.geometry import ellipsoid_from_axes
from balancelat.lattice import LatticeBasis
from balancelat.linalg import RMatrix, RVector, determinant
from balancelat.nbp import NbpInstance
from balancelat.oracles import adversarial_minkowski_oracle
from balancelat.rng import SeededStream, splitmix64
from balancelat.serialize import (
    basis_from_doc,
    basis_to_doc,
    ellipsoid_from_doc,
    ellipsoid_to_doc,
    instance_from_doc,
    instance_to_doc,
    solution_from_doc,
)
from linalg_helpers import entries, reference_gen_ellipsoid


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
        a = gen_nbp(6, 9, 30, signed=False)
        b = gen_nbp(6, 9, 30, signed=False)
        assert a == b
        assert all(0 <= e <= 1 for e in entries(a))

    def test_nbp_signed(self):
        inst = gen_nbp(8, 3, 30, signed=True)
        assert all(-1 <= e <= 1 for e in entries(inst))
        assert any(e < 0 for e in entries(inst))

    def test_basis_full_rank(self):
        basis = gen_basis(4, 2, 99)
        assert determinant(basis.B) != 0

    def test_basis_span_below_one_raises(self, bounded_draws):
        # span 0 draws only zero matrices, a negative span an empty range
        for span in (0, -3):
            with pytest.raises(InvalidParams):
                gen_basis(3, 1, span)

    def test_ellipsoid_volume_hypothesis(self):
        # prod(lengths) >= 1 reads |det A| <= 1; det is the one elimination's value
        for seed in range(5):
            e = gen_ellipsoid(3, seed)
            assert e.det == determinant(e.B)
            assert 0 < abs(e.det) <= 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ellipsoid_matches_the_fraction_reference(self, n):
        # the integer rotation gives exactly the A and det of Givens steps on
        # Fractions followed by from_axes, on the seeds' extremes too
        for seed in [*range(28), -7, 2**64 - 1]:
            e, ref = gen_ellipsoid(n, seed), reference_gen_ellipsoid(n, seed)
            assert (e.B.ints, e.B.den, e.det) == (ref.B.ints, ref.B.den, ref.det)

    @pytest.mark.parametrize("tamper", ["entry", "denominator"])
    def test_ellipsoid_refuses_a_rotation_that_is_not_orthogonal(self, tamper, monkeypatch):
        rotation = generators._random_rotation

        def tampered(stream, n):
            rows, den = rotation(stream, n)
            if tamper == "entry":
                rows[1][2] += 1
                return rows, den
            return rows, 2 * den  # orthogonal columns, but not of norm 1

        monkeypatch.setattr(generators, "_random_rotation", tampered)
        with pytest.raises(InternalContradiction, match="not exactly orthogonal"):
            gen_ellipsoid(3, 5)


class TestSerialize:
    def test_instance_roundtrip(self):
        inst = gen_nbp(5, 11, 30, signed=True)
        doc = instance_to_doc(inst, 30)
        assert instance_from_doc(doc) == inst
        # decimal strings are exact
        assert all("/" not in s for s in doc["a"])

    # `gen nbp --n 3 --seed 7` entries as written when each entry was a Fraction
    GEN_NBP_ENTRIES = {
        (1, False): ["0.0", "0.0", "0.5"],
        (1, True): ["-1.0", "-1.0", "0.0"],
        (30, False): ["0.389829748310148715972900390625", "0.016788293607532978057861328125",
                      "0.900760680437088012695312500000"],
        (30, True): ["-0.220340503379702568054199218750", "-0.966423412784934043884277343750",
                     "0.801521360874176025390625000000"],
        (64, False): [
            "0.3898297483912715721810458846530167420496582053601741790771484375",
            "0.0167882945281561961250321735050761162710841745138168334960937500",
            "0.9007606806068834405217329863724273764091776683926582336425781250"],
        (64, True): [
            "-0.2203405032174568556379082306939665159006835892796516418457031250",
            "-0.9664234109436876077499356529898477674578316509723663330078125000",
            "0.8015213612137668810434659727448547528183553367853164672851562500"],
    }

    @pytest.mark.parametrize("bits, signed", sorted(GEN_NBP_ENTRIES))
    def test_gen_nbp_documents_are_pinned(self, bits, signed, capsys):
        argv = ["gen", "nbp", "--n", "3", "--seed", "7", "--precision-bits", str(bits)]
        assert main(argv + ["--signed"] * signed) == 0
        doc = {"n": 3, "precision_bits": bits, "a": self.GEN_NBP_ENTRIES[bits, signed]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_entries_off_the_dyadic_grid_keep_the_fraction_form(self):
        a = [Fraction(1, 3), Fraction(1, 2), 0, Fraction(-5, 6), Fraction(1, 8), -1]
        inst = NbpInstance.from_values(a)
        doc = instance_to_doc(inst, 2)
        assert doc == {"n": 6, "precision_bits": 2,
                       "a": ["1/3", "0.50", "0.00", "-5/6", "1/8", "-1.00"]}
        assert instance_from_doc(doc) == inst

    def test_basis_roundtrip(self):
        basis = gen_basis(3, 5, 99)
        assert basis_from_doc(basis_to_doc(basis)).B == basis.B

    def test_ellipsoid_roundtrip(self):
        e = gen_ellipsoid(2, 1)
        doc = ellipsoid_to_doc(e)
        assert sorted(doc) == ["A", "n"]
        back = ellipsoid_from_doc(doc)
        assert back.B == e.B and back.det == e.det

    # the A strings `gen ellipsoid` wrote when it also wrote the axis form
    GEN_ELLIPSOID_A = {
        (2, 3): [["211476556032/190817314085", "228225253376/190817314085"],
                 ["-114112626688/254017953145", "105738278016/254017953145"]],
        (3, 41): [
            ["557480984739009768482304/543845065636094569692665",
             "381332501393329353654272/543845065636094569692665",
             "28693513678148730880/23023145373714579963"],
            ["-15253718213302126823734771712/25814054572430124498561059825",
             "17712497145795956640694704384/25814054572430124498561059825",
             "36420002774185399566336/364270861108165166140705"],
            ["-3839311568140730252366512128/12585499916095825823141869025",
             "-12308487223391748019974848512/37756499748287477469425607075",
             "77134505896423027491584/177598249010030703776785"]],
    }

    @pytest.mark.parametrize("n, seed", sorted(GEN_ELLIPSOID_A))
    def test_gen_ellipsoid_documents_are_pinned(self, n, seed, capsys):
        assert main(["gen", "ellipsoid", "--n", str(n), "--seed", str(seed)]) == 0
        doc = {"n": n, "A": self.GEN_ELLIPSOID_A[n, seed]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_axis_form_is_read_only_without_a(self):
        # axes (3/5, 4/5), (-4/5, 3/5) with lengths 1/2 and 2
        axes, lengths = [["3/5", "4/5"], ["-4/5", "3/5"]], ["1/2", "2"]
        e = ellipsoid_from_doc({"n": 2, "axes": axes, "lengths": lengths})
        assert e.B == RMatrix([[Fraction(6, 5), Fraction(8, 5)], [Fraction(-2, 5), Fraction(3, 10)]])
        # beside A, the axes are not read, so axes that are not orthonormal pass
        doc = {"n": 2, "A": [["1", "0"], ["0", "1"]], "axes": [["1", "1"], ["1", "1"]],
               "lengths": ["0", "1"]}
        assert ellipsoid_from_doc(doc).B == RMatrix.identity(2)


# entries in non-canonical forms; each reader must build what Fraction(s.strip()) gives
LOOSE = ["2/4", "0.50", "+1", "1e-1", " 1/3 ", "-2.5e-1"]
LOOSE_MATRIX = [["2/4", "0.50", "+1"], ["1e-1", " 1/3 ", "0"], ["0", "0", "-3.0e0"]]


def fractions_of(rows):
    return [[Fraction(s.strip()) for s in row] for row in rows]


class TestLooseEntries:
    def test_instance(self):
        inst = instance_from_doc({"n": 6, "precision_bits": 30, "a": LOOSE})
        expected = NbpInstance.from_values(fractions_of([LOOSE])[0])
        assert inst == expected and (inst.ints, inst.den) == (expected.ints, expected.den)

    def test_basis(self):
        basis = basis_from_doc({"n": 3, "columns": LOOSE_MATRIX})
        expected = LatticeBasis(RMatrix(zip(*fractions_of(LOOSE_MATRIX))))
        assert basis == expected and (basis.B.ints, basis.B.den) == (expected.B.ints, expected.B.den)
        assert basis.det == expected.det

    def test_ellipsoid_matrix(self):
        e = ellipsoid_from_doc({"n": 3, "A": LOOSE_MATRIX})
        expected = LatticeBasis(RMatrix(fractions_of(LOOSE_MATRIX)))
        assert (e.B.ints, e.B.den) == (expected.B.ints, expected.B.den) and e.det == expected.det

    def test_ellipsoid_axes_and_lengths(self):
        # the axes (3/5, 4/5) and (-4/5, 3/5) with lengths 1/2 and 2
        axes, lengths = [["6/10", "0.80"], ["-8e-1", "+3/5"]], [" 1/2 ", "2.0"]
        e = ellipsoid_from_doc({"n": 2, "axes": axes, "lengths": lengths})
        expected = ellipsoid_from_axes([RVector(ax) for ax in fractions_of(axes)],
                                       fractions_of([lengths])[0])
        assert (e.B.ints, e.B.den) == (expected.B.ints, expected.B.den)

    @pytest.mark.parametrize("text", LOOSE)
    def test_solution_error(self, text):
        x, k, error = solution_from_doc({"x": [1, 0], "k": 1, "error": text})
        assert (x, k, error) == ([1, 0], 1, Fraction(text.strip()))


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
    # rows of A of some other length than n disagree with n, as too few rows do
    ("ellipsoid-rows-longer-than-n", TO_MINKOWSKI,
     {"n": 2, "A": [["1", "0", "0"], ["0", "1", "0"]]}, "ellipsoid shape disagrees with n"),
    ("ellipsoid-empty-row", TO_MINKOWSKI, {"n": 1, "A": [[]]},
     "ellipsoid shape disagrees with n"),
    ("basis-dimension-0", ["lll"], {"n": 0, "columns": []}, "basis dimension must be >= 1"),
    # a JSON n that is not an integer is refused, not truncated to one
    ("instance-n-fractional", ["solve", "--algo", "kk"],
     {"n": 2.5, "precision_bits": 30, "a": ["0.5", "0.5"]}, "n must be an integer"),
    ("instance-n-bool", ["solve", "--algo", "kk"],
     {"n": True, "precision_bits": 30, "a": ["0.5"]}, "n must be an integer"),
    ("basis-n-fractional", ["lll"], {"n": 2.5, "columns": [["1", "0"], ["0", "1"]]},
     "malformed basis document: n must be an integer"),
    ("basis-n-bool", ["lll"], {"n": True, "columns": [["1"]]},
     "malformed basis document: n must be an integer"),
    ("ellipsoid-n-fractional", TO_MINKOWSKI, {"n": 2.5, "A": [["1", "0"], ["0", "1"]]},
     "malformed ellipsoid document: n must be an integer"),
    ("ellipsoid-n-bool", TO_MINKOWSKI, {"n": True, "A": [["1"]]},
     "malformed ellipsoid document: n must be an integer"),
    # documents without A: the axis form is checked before A is built from it
    ("ellipsoid-zero-length", TO_MINKOWSKI,
     {"n": 2, "axes": [["1", "0"], ["0", "1"]], "lengths": ["0", "1"]},
     "axis lengths must be positive"),
    ("ellipsoid-negative-length", TO_MINKOWSKI,
     {"n": 2, "axes": [["1", "0"], ["0", "1"]], "lengths": ["2", "-1/2"]},
     "axis lengths must be positive"),
    ("ellipsoid-axes-disagree-with-n", TO_MINKOWSKI,
     {"n": 3, "axes": [["1", "0"], ["0", "1"]], "lengths": ["1", "1"]},
     "ellipsoid shape disagrees with n"),
    ("ellipsoid-axes-disagree-with-lengths", TO_MINKOWSKI,
     {"n": 2, "axes": [["1", "0", "0"], ["0", "1", "0"]], "lengths": ["1", "1"]},
     "axis form needs n axes of dimension n for n lengths"),
    ("ellipsoid-axes-not-orthonormal", TO_MINKOWSKI,
     {"n": 2, "axes": [["1", "0"], ["1", "1"]], "lengths": ["1", "1"]},
     "axes are not orthonormal within tolerance"),
    ("ellipsoid-no-matrix", TO_MINKOWSKI, {"n": 2, "axes": [["1", "0"], ["0", "1"]]},
     "ellipsoid document needs A or axes+lengths"),
    # a string where a list belongs is refused, not read character by character
    ("basis-columns-a-string", ["lll"], {"n": 1, "columns": "7"},
     "malformed basis document: columns must be a list"),
    ("basis-column-a-string", ["lll"], {"n": 1, "columns": ["7"]},
     "malformed basis document: each column must be a list"),
    ("instance-a-a-string", ["solve", "--algo", "kk"], {"n": 2, "precision_bits": 2, "a": "11"},
     "malformed instance document: a must be a list"),
    ("ellipsoid-row-a-string", TO_MINKOWSKI, {"n": 1, "A": ["1"]},
     "malformed ellipsoid document: each row of A must be a list"),
    ("ellipsoid-a-a-string", TO_MINKOWSKI, {"n": 1, "A": "1"},
     "malformed ellipsoid document: A must be a list"),
    ("ellipsoid-axes-a-string", TO_MINKOWSKI, {"n": 1, "axes": "1", "lengths": ["1"]},
     "malformed ellipsoid document: axes must be a list"),
    ("ellipsoid-axis-a-string", TO_MINKOWSKI, {"n": 1, "axes": ["1"], "lengths": ["1"]},
     "malformed ellipsoid document: each axis must be a list"),
    ("ellipsoid-lengths-a-string", TO_MINKOWSKI, {"n": 1, "axes": [["1"]], "lengths": "1"},
     "malformed ellipsoid document: lengths must be a list"),
    ("ellipsoid-axes-dimension-0", TO_MINKOWSKI, {"n": 0, "axes": [], "lengths": []},
     "ellipsoid dimension must be >= 1"),
    # entries: out of range, q = 0, not a string, and digit runs past int()'s 4 300-digit limit
    ("instance-entry-above-one", ["solve", "--algo", "kk"],
     {"n": 2, "precision_bits": 30, "a": ["0.5", "3/2"]}, "entries must lie in [-1, 1]"),
    ("instance-entry-zero-denominator", ["solve", "--algo", "kk"],
     {"n": 1, "precision_bits": 30, "a": ["1/0"]}, "not an exact rational: '1/0'"),
    ("instance-entry-not-a-string", ["solve", "--algo", "kk"],
     {"n": 1, "precision_bits": 30, "a": [0.5]}, "malformed instance document"),
    ("instance-entry-5000-digits", ["solve", "--algo", "kk"],
     {"n": 1, "precision_bits": 30, "a": ["0." + "1" * 5000]}, "not an exact rational"),
    ("basis-entry-5000-digits", ["lll"], {"n": 1, "columns": [["1" * 5000]]},
     "not an exact rational"),
    ("ellipsoid-entry-5000-digits", TO_MINKOWSKI, {"n": 1, "A": [["1/" + "1" * 5000]]},
     "not an exact rational"),
    ("ellipsoid-length-5000-digits", TO_MINKOWSKI,
     {"n": 1, "axes": [["1"]], "lengths": ["1" * 5000]}, "not an exact rational"),
    # a missing field is named
    ("instance-missing-n", ["solve", "--algo", "kk"], {"precision_bits": 30, "a": ["0.5"]},
     "malformed instance document: missing field n"),
    ("basis-missing-columns", ["lll"], {"n": 1}, "malformed basis document: missing field columns"),
    ("ellipsoid-missing-n", TO_MINKOWSKI, {"A": [["1"]]},
     "malformed ellipsoid document: missing field n"),
]

# (case id, bytes of the input file, message on standard error): text that
# json.loads or the UTF-8 decoder cannot read at all
BAD_TEXTS = [
    ("array-nested-200000-deep", b"[" * 200_000 + b"]" * 200_000,
     "not valid JSON: arrays or objects nested too deeply"),
    ("bare-5000-digit-integer", b"1" * 5000, "not valid JSON: an integer has more than"),
    ("5000-digit-integer-field", b'{"n": 1, "precision_bits": ' + b"1" * 5000 + b', "a": ["0.5"]}',
     "not valid JSON: an integer has more than"),
    ("not-utf-8", b'{"n": 1, "precision_bits": 30, "a": ["0.5"]}\xff', "is not UTF-8 text"),
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

    def test_exact_mink_searches_past_the_box_size(self, tmp_path, capsys):
        # the box holds 7^12 > 10^8 points; the pruned search needs far fewer nodes
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "12", "--seed", "0", "--signed")[1])
        code, out = self.run(
            capsys, "reduce", "to-nbp", "--oracle", "exact-mink", "--k", "3", "--input", str(f)
        )
        assert code == 0
        doc = json.loads(out)
        assert max(abs(v) for v in doc["solution"]["x"]) <= 3
        assert Fraction(doc["audit"]["achieved_error"]) <= Fraction(doc["audit"]["claimed_bound"])

    def test_reduce_to_minkowski(self, tmp_path, capsys):
        code, out = self.run(capsys, "gen", "ellipsoid", "--n", "2", "--seed", "3")
        f = tmp_path / "e.json"
        f.write_text(out)
        code, out = self.run(
            capsys, "reduce", "to-minkowski", "--oracle", "mitm", "--Q", "256", "--input", str(f),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] in ("integer-point", "pipeline")
        assert any(doc["x"])

    def test_reduce_to_minkowski_mitm_at_the_default_q(self, tmp_path, capsys):
        # n = 3 takes Q = 4096: 36 oracle coordinates, of which MITM searches
        # the 9 nonzero ones
        code, out = self.run(capsys, "gen", "ellipsoid", "--n", "3", "--seed", "41")
        f = tmp_path / "e.json"
        f.write_text(out)
        code, out = self.run(capsys, "reduce", "to-minkowski", "--oracle", "mitm", "--input", str(f))
        assert code == 0
        doc = json.loads(out)
        assert doc["branch"] == "pipeline" and doc["x"] == [511, 0, -1022]

    @pytest.mark.parametrize("n, seed, branch", [(2, 3, "integer-point"), (3, 41, "pipeline")])
    def test_reduce_to_minkowski_bad_q_exit_code(self, n, seed, branch, tmp_path, capsys):
        # --Q is checked before well-rounding, so it is refused on either branch
        f = tmp_path / "e.json"
        f.write_text(self.run(capsys, "gen", "ellipsoid", "--n", str(n), "--seed", str(seed))[1])
        argv = ["reduce", "to-minkowski", "--oracle", "mitm", "--input", str(f)]
        code, out = self.run(capsys, *argv, "--Q", "16")
        assert code == 0 and json.loads(out)["branch"] == branch
        for q in ("0", "-4", "3"):
            assert main([*argv, "--Q", q]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Q must be a power of two, >= 2" in captured.err

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

    def test_bench_budget_exceeded_status(self, capsys, monkeypatch):
        # brute force's 3^10 table and MITM's 3^5 half table both pass 100 entries
        monkeypatch.setenv("BALANCELAT_BUDGET", "100")
        code, out = self.run(
            capsys, "bench", "--sizes", "10", "--seeds", "1", "--algos", "brute-force,mitm",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["10,0,brute-force,,,,,,budget-exceeded",
                                        "10,0,mitm,,,,,,budget-exceeded"]

    def test_oracle_contract_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        # exit 2: the reply e_1 fails the exact comparison with the declared bound
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "6", "--seed", "3", "--signed")[1])
        monkeypatch.setattr(cli, "exact_minkowski_oracle", adversarial_minkowski_oracle)
        code = main(["reduce", "to-nbp", "--oracle", "exact-mink", "--k", "1", "--input", str(f)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "bound violation: adversarial-minkowski: |x|_inf exceeds declared bound 1\n"
        )

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

    def test_precision_bits_below_one_exit_code(self, capsys):
        for bits in ("0", "-1"):
            for argv in (
                ["gen", "nbp", "--n", "4", "--seed", "1", "--precision-bits", bits],
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
            ["reduce", "to-minkowski", "--oracle", "mitm", "--precision-bits", "80"],
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

    def test_bench_no_sizes_exit_code(self, capsys):
        assert main(["bench", "--sizes", ",,", "--seeds", "1", "--algos", "kk"]) == 3
        captured = capsys.readouterr()
        assert "--sizes needs at least one dimension, got ',,'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algos", [",", "", ",,"])
    def test_bench_no_algorithms_exit_code(self, algos, capsys):
        assert main(["bench", "--sizes", "4", "--seeds", "1", "--algos", algos]) == 3
        captured = capsys.readouterr()
        assert f"--algos needs at least one algorithm, got {algos!r}" in captured.err
        assert captured.out == ""

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

    def test_k_below_one_exit_code(self, tmp_path, capsys):
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "6", "--seed", "1")[1])
        for k in ("0", "-3"):
            for algo in ("brute-force", "mitm", "pigeonhole", "kk"):
                assert main(["solve", "--algo", algo, "--k", k, "--input", str(f)]) == 3
                captured = capsys.readouterr()
                assert "--k must be >= 1" in captured.err and captured.out == ""
            assert main(["bench", "--sizes", "3", "--seeds", "1", "--algos", "mitm,kk",
                         "--k", k]) == 3
            captured = capsys.readouterr()
            assert "--k must be >= 1" in captured.err and captured.out == ""

    def test_full_pipeline_refuses_k(self, tmp_path, capsys):
        f = tmp_path / "i.json"
        f.write_text(self.run(capsys, "gen", "nbp", "--n", "9", "--seed", "5", "--signed")[1])
        argv = ["reduce", "to-nbp", "--oracle", "exact-svp", "--input", str(f)]
        assert main(argv + ["--full"]) == 0
        assert capsys.readouterr().err == ""
        # --full picks k = max(1, ceil(3*rho)) itself, so an explicit --k is a usage error
        for k in ("7", "1"):
            for line in (argv + ["--full", "--k", k], argv + ["--k", k, "--full"]):
                assert main(line) == 3
                captured = capsys.readouterr()
                assert "not allowed with argument" in captured.err and captured.out == ""
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

    @pytest.mark.parametrize("raw, message", [b[1:] for b in BAD_TEXTS],
                             ids=[b[0] for b in BAD_TEXTS])
    def test_unreadable_text_exit_code(self, raw, message, tmp_path, capsys):
        f = tmp_path / "doc.json"
        f.write_bytes(raw)
        assert main(["solve", "--algo", "kk", "--input", str(f)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_standard_input_not_utf8_exit_code(self, monkeypatch, capsys):
        raw = b'{"n": 1, "precision_bits": 30, "a": ["0.5"]}\xff'
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        assert main(["solve", "--algo", "kk", "--input", "-"]) == 3
        captured = capsys.readouterr()
        assert "input '-' is not UTF-8 text" in captured.err and captured.out == ""

    # x = e_1 with k = 1 and error 1/2 verifies; each row spoils one field
    @pytest.mark.parametrize("x, k", [
        (["a", 0, 0, 0], 1), ([1.9, 0, 0, 0], 1), ([True, 0, 0, 0], 1), (["1", 0, 0, 0], 1),
        ([1, 0, 0, 0], 1.5), ("1000", 1),
    ], ids=["x-not-a-number", "x-float", "x-bool", "x-string", "k-float", "x-a-string"])
    def test_malformed_solution_exit_code(self, x, k, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"n": 4, "precision_bits": 2, "a": ["0.5", "0.25", "0", "1"]}))
        sol = tmp_path / "s.json"
        sol.write_text(json.dumps({"x": [1, 0, 0, 0], "k": 1, "error": "1/2"}))
        assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 0
        capsys.readouterr()
        sol.write_text(json.dumps({"x": x, "k": k, "error": "1/2"}))
        assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 3
        captured = capsys.readouterr()
        assert "malformed solution document" in captured.err and captured.out == ""

    def test_5000_digit_solution_error_exit_code(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"n": 1, "precision_bits": 2, "a": ["0.5"]}))
        sol = tmp_path / "s.json"
        sol.write_text(json.dumps({"x": [1], "k": 1, "error": "1" * 5000}))
        assert main(["verify", "--instance", str(inst), "--solution", str(sol)]) == 3
        captured = capsys.readouterr()
        assert "not an exact rational" in captured.err and captured.out == ""
        assert "Traceback" not in captured.err

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
        assert main(to_nbp + ["--full"]) == 0
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
    "nbp4": ["nbp", "--n", "4", "--seed", "1", "--signed"],
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
    # a repeated size or algorithm runs its cells once: the same report as above
    ("bench --sizes 10,8,10 --seeds 1 --algos kk,brute-force,kk,mitm,pigeonhole,mitm --k 2", 0,
     "22fd33250a4c5de7b9f77436354c3ccd74de89f6c5ea194d5b1af839171b18b7"),
    ("solve --algo pigeonhole --pigeons 100 --input {nbp8}", 0,
     "be477480af37ced94f57a21725920b9211dd1525f37b574986fbddb527a08c97"),
    ("reduce to-nbp --oracle exact-svp --k 2 --input {nbp9}", 0,
     "e2c2c8715d9cdf92b5106c3bd04f15047b64f543f3894475359d1ac48327d0b5"),
    ("reduce to-nbp --oracle exact-svp --full --input {nbp9}", 0,
     "8529c4731f2fd49ee719040549461bdeb4e524f5e14d8151949aaa27100820b4"),
    ("reduce to-nbp --oracle exact-svp --full --input {nbp16}", 0,
     "f86b26237ccb3bdd4c1df08d6a9922816d77db3fbdfaf451a3d131890f5a62ed"),
    ("reduce to-nbp --oracle lll --k 2 --input {nbp9}", 0,
     "2de3c34c5f1731e44a745d15aea54e025419c1911f35ac69199853235d10433b"),
    ("reduce to-nbp --oracle lll --k 2 --input {nbp16}", 0,
     "bb7ec928b4e4d20b42a55cdddac2217a7bba840d23a413074a5fcad79aa853a8"),
    ("reduce to-nbp --oracle lll --full --input {nbp9}", 0,  # Karmarkar-Karp fallback
     "557e1d83ce74743d19ad5f31610fcf45676c822006a14eea7abe8b420ef8ec4a"),
    ("reduce to-nbp --oracle lll --k 3 --input {nbp4}", 0,  # embedding branch: the LLL oracle runs
     "dcc32b9d8d77bd4ea2bb95a504926a446e17005791b1d1fb0ef5a41cb4a88e7f"),
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


# argv on which main, which parses at the leaf, must print and exit exactly as
# PARSER's nested dispatch does; {name} stands for a GOLDEN_INPUTS document
ARGV_TABLE = [
    "--help",
    "reduce --help",
    *(f"{c} --help" for c in SUBCOMMANDS if c != "reduce"),
    "",
    "reduce",
    "reduce to-nbp --input {nbp9}",  # no --oracle
    "solve --algo nope --input {nbp8}",
    "solve --algo kk --k x --input {nbp8}",
    "reduce to-nbp --ora exact-svp --inp {nbp9}",
    "reduce to-nbp --o lll --input {nbp9}",  # ambiguous: --oracle or --out
    "reduce to-nbp --oracle exact-svp --k=2 --input {nbp9}",
    "reduce to-nbp --oracle exact-svp --full --k 1 --input {nbp9}",
    "reduce to-minkowski --oracle pigeonhole --input {rounded-ellipsoid}",
    "solve --algo kk --input {nbp8} extra",
    "reduce to-minkowski --oracle kk --precision-bits 80 --input {point-ellipsoid}",
    "solve extra",  # the leaf's missing --algo is reported before the extra word
    "--input {nbp8} solve --algo kk",
    "frobnicate",
]


def outcome(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line", ARGV_TABLE)
def test_leaf_dispatch_matches_the_nested_parse(line, golden_inputs, capsys, monkeypatch):
    argv = [arg.format(**golden_inputs) for arg in line.split()]
    at_the_leaf = outcome(argv, capsys)
    monkeypatch.setattr(cli, "_parse", cli.PARSER.parse_args)
    assert at_the_leaf == outcome(argv, capsys)


@pytest.mark.parametrize("argv, dest", [([], "command"), (["reduce"], "direction")])
def test_a_missing_command_word_is_named_by_its_dest(argv, dest, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err.endswith(
        f"error: the following arguments are required: {dest}\n")


def test_extra_words_are_reported_with_the_top_level_usage(golden_inputs, capsys):
    assert main(["solve", "--algo", "kk", "--input", golden_inputs["nbp8"], "extra"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: balancelat [-h]")
    assert err.endswith("balancelat: error: unrecognized arguments: extra\n")


def test_every_leaf_is_in_the_dispatch_table():
    assert set(cli.LEAVES) == {tuple(c.split()) for c in SUBCOMMANDS if c != "reduce"}
