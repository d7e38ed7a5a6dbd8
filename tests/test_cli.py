"""Command-line interface: payloads, formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_oracle import gl_closed_bound, gl_closed_slice

from polyweight import kernel_backend_name
from polyweight.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    build_parser,
    main,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert err == ""
    return json.loads(out)


class TestClassify:
    def test_known_weight(self, capsys):
        payload = run_json(
            capsys,
            ["classify", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "3,1"],
        )
        assert payload["command"] == "classify"
        assert payload["group"] == "gl:2"
        assert payload["backend"] == kernel_backend_name
        assert payload["kernel_basis"] == []
        assert payload["p"] == 2 and payload["r"] == 1
        result = payload["result"]
        assert result == {
            "weight": [3, 1],
            "phi": [1],
            "is_polynomial": True,
            "is_restricted": False,
            "in_Pr": False,
            "is_simple_polynomial": True,
            "lambda0": [1, 1],
            "lambda_tilde": [1, 0],
            "note": "",
        }

    def test_huge_exponent_is_refused_before_the_power(self, capsys):
        # 3^(10^7) would have 1.6e7 bits; the bound is checked first
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["classify", "--group", "gl:3", "--p", "3", "--r", "10000000",
             "--weight", "1,0,0"],
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            "error: modulus p^r = 3^10000000 is refused: "
            "bit_length(p) * r = 20000000 exceeds 12288\n"
        )

    def test_negative_coordinates_use_equals_syntax(self, capsys):
        payload = run_json(
            capsys,
            ["classify", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight=-1,2"],
        )
        assert payload["result"]["weight"] == [-1, 2]
        assert payload["result"]["is_polynomial"] is False

    def test_undecomposable_class_reports_note(self, capsys):
        payload = run_json(
            capsys,
            ["classify", "--group", "go:5", "--p", "2", "--r", "1",
             "--weight", "0,1,0,0,0"],
        )
        result = payload["result"]
        assert result["lambda0"] is None
        assert result["lambda_tilde"] is None
        assert result["is_simple_polynomial"] is False
        assert result["note"] != ""


class TestDecompose:
    def test_split_with_functional_values(self, capsys):
        payload = run_json(
            capsys,
            ["decompose", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "3,1"],
        )
        assert payload["result"] == {
            "weight": [3, 1],
            "lambda0": [1, 1],
            "lambda_tilde": [1, 0],
            "phi_lambda0": [1],
            "phi_lambda_tilde": [0],
        }

    def test_unavailable_is_a_precondition_failure(self, capsys):
        code, out, err = run(
            capsys,
            ["decompose", "--group", "go:5", "--p", "2", "--r", "1",
             "--weight", "0,1,0,0,0"],
        )
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("error:")


class TestEnumerate:
    def test_small_general_linear(self, capsys):
        payload = run_json(
            capsys,
            ["enumerate-pr", "--group", "gl:2", "--p", "2", "--r", "1"],
        )
        assert payload["result"]["count"] == 4
        assert payload["result"]["elements"] == [
            [0, 0], [1, 0], [1, 1], [2, 1],
        ]

    @pytest.mark.parametrize("r", ["30", "100", "5000"])
    def test_candidate_count_past_the_cap_is_a_domain_error(self, capsys, r):
        # (3^r)^3 candidates: counted before any range is built, then
        # refused; at r = 5000 the count has more digits than str() converts
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["enumerate-pr", "--group", "gl:3", "--p", "3", "--r", r]
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            f"error: enumeration at p^r = 3^{r} has more than 1000000 candidates\n"
        )


class TestValidate:
    def test_good_datum(self, capsys):
        payload = run_json(capsys, ["validate", "--group", "gsp:4"])
        result = payload["result"]
        assert result["all_ok"] is True
        assert all(result[key] for key in ("a", "b", "c_lower", "c_upper", "d"))
        assert result["witnesses"] == []

    def test_gl128_answers_from_the_transposition_graph(self):
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "validate", "--group", "gl:128"],
            capture_output=True, text=True, timeout=20,
        )
        elapsed = time.perf_counter() - begin
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["result"]["all_ok"] is True
        assert elapsed < 5, elapsed

    @pytest.mark.parametrize("n", range(14, 41, 2))
    def test_even_orthogonal_answers_by_parity(self, capsys, n):
        # every go_even generator is even, so no within-block
        # transposition is in W, and no closure is built
        start = time.perf_counter()
        result = run_json(capsys, ["validate", "--group", f"go:{n}"])["result"]
        assert time.perf_counter() - start < 1
        assert result["c_lower"] is False
        assert result["witnesses"] == [
            f"(c-lower): transposition ({i}, {n - 1 - i}) within block {i} "
            "is not in the generated Weyl group"
            for i in range(n // 2)
        ]

    def test_even_orthogonal_rank_40_end_to_end(self):
        begin = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "validate", "--group", "go:40"],
            capture_output=True, text=True, timeout=20,
        )
        elapsed = time.perf_counter() - begin
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["result"]["c_lower"] is False
        assert elapsed < 1, elapsed

    def test_even_orthogonal_fails_one_hypothesis(self, capsys):
        payload = run_json(capsys, ["validate", "--group", "go:8"])
        result = payload["result"]
        assert result["all_ok"] is False
        assert result["c_lower"] is False
        assert result["a"] and result["b"] and result["c_upper"] and result["d"]
        assert result["witnesses"]
        assert all(w.startswith("(c-lower)") for w in result["witnesses"])


class TestAssumptionCheck:
    def test_small_run(self, capsys):
        payload = run_json(
            capsys,
            ["assumption-check", "--group", "gl:2", "--p", "2", "--r", "1",
             "--box-radius", "2"],
        )
        result = payload["result"]
        assert result["box_radius"] == 2
        assert result["all_ok"] is True
        names = [prop["name"] for prop in result["properties"]]
        assert names == [
            "positivity", "homogeneity", "additivity_witness", "x0_bijection",
        ]
        assert all(prop["ok"] for prop in result["properties"])

    def test_gsp16_certifies(self, capsys):
        # a non-negative shift of the box point (-1, -1, -1, -1, 1, ..., 1,
        # -1, -1, -1, -1) needs a kernel coefficient of 4: more than the
        # spread plus the radius
        payload = run_json(
            capsys,
            ["assumption-check", "--group", "gsp:16", "--p", "3", "--r", "1",
             "--box-radius", "1"],
        )
        assert payload["result"]["all_ok"] is True

    def test_jobs_is_refused_by_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "assumption-check", "--group",
             "gl:2", "--p", "2", "--r", "1", "--jobs", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ")
        assert "unrecognized arguments: --jobs 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["--group", "gl:3", "--box-radius", "3037000500"],
         ["--group", "go:41"],
         ["--group", "gl:1000", "--box-radius", "1000"]],
        ids=["huge-radius", "many-blocks", "many-digits"],
    )
    def test_an_unbounded_box_is_a_domain_error(self, capsys, argv):
        # 6,074,001,001 vectors of block minima, 5^21 of them, and 2001^2000
        # pairs, past the decimal digits an integer may be written with
        # (22,000 > PRPOW_BIT_LIMIT bits)
        begin = time.perf_counter()
        code, out, err = run(
            capsys, ["assumption-check", "--p", "3", "--r", "1"] + argv
        )
        assert time.perf_counter() - begin < 1.0
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: box certification of ")
        assert "Traceback" not in err


class TestCounterexample:
    def test_prime_power_five(self, capsys):
        payload = run_json(capsys, ["counterexample", "--prpower", "5"])
        assert "group" not in payload
        assert payload["result"] == {
            "prpow": 5,
            "lambda0": [2, 2, 2, 2, 1, 1, 1, 1],
            "lambda_tilde": [0, 0, 0, 0, 1, 1, -1, 1],
            "phi_lambda0": [4],
            "phi_lambda0_shifted": [-1],
            "phi_lambda_tilde": [-1],
            "witness": None,
            "weyl_order": 192,
        }

    def test_residue_gate(self, capsys):
        code, out, err = run(capsys, ["counterexample", "--prpower", "7"])
        assert code == EXIT_PRECONDITION
        assert "error:" in err

    @pytest.mark.parametrize(
        "prpower", [999_999_999_989, 999_999_999_989**2], ids=["prime", "square"]
    )
    def test_large_prime_power_answers(self, prpower):
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "counterexample",
             "--prpower", str(prpower)],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["result"]["prpow"] == prpower

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "--prpower", "618970019642690137449562111"],
            ["classify", "--group", "gl:3", "--p",
             "1000000000000000000000000000057", "--r", "1", "--weight", "1,0,0"],
        ],
        ids=["prpower-2^89-1", "p-past-the-bound"],
    )
    def test_primality_past_the_bound_is_a_domain_error(self, capsys, argv):
        # the deterministic primality test is exact below about 3.3e24 and
        # refuses larger values at once
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: primality of")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "prpower,message",
        [
            (2**12000 + 1, "error: primality of "),
            (2**12288 + 1, "error: --prpower is refused: its bit_length 12289 "
                           "exceeds 12288\n"),
        ],
        ids=["12001-bits", "past-the-bit-limit"],
    )
    def test_a_huge_prpower_is_a_quick_domain_error(self, capsys, prpower,
                                                     message):
        # the perfect-power test takes few Newton steps per exponent, and
        # a value past PRPOW_BIT_LIMIT bits is refused before it
        start = time.perf_counter()
        code, out, err = run(capsys, ["counterexample", "--prpower", str(prpower)])
        assert time.perf_counter() - start < 2
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith(message)
        assert "Traceback" not in err


class TestOrbitShift:
    def test_admissible_shift(self, capsys):
        payload = run_json(
            capsys,
            ["orbit-shift", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "1,0", "--shift-i", "1", "--box-radius", "4"],
        )
        assert payload["result"] == {
            "weight": [1, 0],
            "shift_i": 1,
            "box_radius": 4,
            "shift_bound": 0,
            "ok": True,
            "counterexample": None,
            "orbit_size": 4,
        }

    @pytest.mark.parametrize("n", [9, 10])
    def test_gl9_and_gl10_answer(self, capsys, n):
        # their Weyl groups are past weyl.WEYL_CAP, which refused them
        payload = run_json(
            capsys,
            ["orbit-shift", "--group", f"gl:{n}", "--p", "11", "--r", "1",
             "--weight", ",".join(["0"] * n), "--shift-i", "1",
             "--box-radius", "1"],
        )
        zero = (0,) * n
        assert payload["result"] == {
            "weight": list(zero),
            "shift_i": 1,
            "box_radius": 1,
            "shift_bound": gl_closed_bound(zero, 11),
            "ok": True,
            "counterexample": None,
            "orbit_size": len(gl_closed_slice(zero, 11, 1)),
        }

    def test_out_of_range_shift(self, capsys):
        code, _, err = run(
            capsys,
            ["orbit-shift", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "1,0", "--shift-i", "5", "--box-radius", "4"],
        )
        assert code == EXIT_PRECONDITION
        assert "error:" in err

    def test_box_past_the_cap_is_a_domain_error(self, capsys):
        # (2R+1)^3 box points are counted before the scan builds a range
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["orbit-shift", "--group", "gl:3", "--p", "3", "--r", "1",
             "--weight", "1,0,0", "--shift-i", "1",
             "--box-radius", "3037000500"],
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            "error: orbit scan of the box of radius 3037000500 in dimension 3 "
            "has more than 1000000 points\n"
        )

    def test_rank_two_distinguished_part_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["orbit-shift", "--group", "levi:2,3", "--p", "2", "--r", "1",
             "--weight", "1,0,0,0,0", "--shift-i", "0", "--box-radius", "3"],
        )
        assert code == EXIT_DOMAIN
        assert "error:" in err


    def test_rank_one_is_checked_before_the_base_weight(self, capsys):
        # (-7, 0, 0, 0, 0) is not simple at p = 3, but the bound comes first
        code, out, err = run(
            capsys,
            ["orbit-shift", "--group", "levi:2,3", "--p", "3", "--r", "1",
             "--weight=-7,0,0,0,0", "--shift-i", "1"],
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err == (
            "error: the shift bound needs a rank-one distinguished "
            "sublattice; levi:2,3 has rank 2\n"
        )


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--group", "foo:3", "--p", "2", "--r", "1",
             "--weight", "1,0,0"],
            ["classify", "--group", "gl:2", "--p", "4", "--r", "1",
             "--weight", "1,0"],
            ["classify", "--group", "gl:2", "--p", "2", "--r", "0",
             "--weight", "1,0"],
            ["classify", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "1,0,0"],
            ["classify", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "a,b"],
            ["counterexample", "--prpower", "6"],
            ["counterexample", "--prpower", "1"],
            ["counterexample", "--prpower", "36"],
            ["orbit-shift", "--group", "gl:2", "--p", "2", "--r", "1",
             "--weight", "1,0", "--shift-i", "-1", "--box-radius", "4"],
        ],
        ids=[
            "unknown-family", "composite-p", "zero-exponent", "wrong-length",
            "non-integer-weight", "composite-prpower", "unit-prpower",
            "square-of-composite-prpower",
            "negative-shift",
        ],
    )
    def test_malformed_requests(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error:")

    def test_even_orthogonal_context_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys,
            ["classify", "--group", "go:8", "--p", "5", "--r", "1",
             "--weight", "0,0,0,0,0,0,0,0"],
        )
        assert code == EXIT_DOMAIN
        assert "error:" in err

    @pytest.mark.parametrize(
        "spec",
        ["gl:99999999999999999999", "gsp:99999999999999999998",
         "go:99999999999999999999", "go:99999999999999999998",
         "levi:9223372036854775807,1", "gl:8000", "levi:6000,6000"],
    )
    def test_oversize_rank_is_a_domain_error(self, capsys, spec):
        # each rank is past AMBIENT_DIM_CAP = 2,048, so it is refused
        # before anything is allocated; gl:8000 and levi:6000,6000 used
        # to build until memory ran out
        begin = time.perf_counter()
        code, out, err = run(capsys, ["validate", "--group", spec])
        assert time.perf_counter() - begin < 1.0
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: unsupported rank: ambient dimension ")
        assert err.count("\n") == 1

    def test_missing_subcommand_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "polyweight" in capsys.readouterr().out


# Integers for the fuzzed options: small ones, and the edges of what the
# caps and the decimal limit allow (10^4299 is the largest power of ten
# Python reads from decimal by default).
_EDGE_INTS = [10**4_299, -(10**4_299), 3_037_000_500, 10**30]
_FUZZ_INTS = st.one_of(st.integers(-2, 4), st.sampled_from(_EDGE_INTS))
_SMALL_PRIMES = st.sampled_from([2, 3, 5, 7])
_FUZZ_PRIMES = st.one_of(
    _SMALL_PRIMES,
    _SMALL_PRIMES,
    st.sampled_from([1, 0, -3, 4, 9, 1_000_000_007, 2**89 - 1, 10**4_299]),
)
# each spec with its ambient dimension; the degenerate ones have none
_FUZZ_SPECS = {
    "gl:1": 1, "gl:2": 2, "gl:3": 3, "gsp:2": 2, "gsp:4": 4, "go:3": 3,
    "go:5": 5, "levi:1,2": 3, "levi:2,1": 3, "go:8": 8,
    "gl:0": 1, "levi:": 1, "go:1": 1, "gsp:3": 3,
}


@st.composite
def _fuzzed_requests(draw):
    command = draw(st.sampled_from(["orbit-shift", "assumption-check"]))
    spec = draw(st.sampled_from(sorted(_FUZZ_SPECS)))
    r = draw(st.one_of(st.just(1), st.just(1), st.integers(-1, 3),
                       st.sampled_from(_EDGE_INTS)))
    argv = ["--format", draw(st.sampled_from(["json", "tsv"])), command,
            "--group", spec, "--p", str(draw(_FUZZ_PRIMES)), "--r", str(r)]
    if command == "orbit-shift":
        dim = _FUZZ_SPECS[spec]
        dim = draw(st.one_of(st.just(dim), st.just(dim), st.integers(1, 5)))
        weight = draw(st.lists(st.integers(-1, 2), min_size=dim, max_size=dim))
        shift = draw(st.one_of(st.integers(0, 2), st.integers(0, 2), _FUZZ_INTS))
        argv += [f"--weight={','.join(map(str, weight))}", f"--shift-i={shift}"]
    radius = draw(st.one_of(st.none(), st.integers(1, 2), st.integers(1, 2), _FUZZ_INTS))
    if radius is not None:
        argv.append(f"--box-radius={radius}")
    return argv


class TestFuzzedRequests:
    @settings(max_examples=150, deadline=2_000)
    @given(argv=_fuzzed_requests())
    def test_every_request_exits_cleanly(self, argv):
        # huge and negative radii, composite, unit and undecided p, huge r
        # and degenerate specs all end in a documented exit code, with no
        # traceback, each within the deadline
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse's refusals
                code = stop.code
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_PRECONDITION)
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            assert err.getvalue() == ""
            if argv[1] == "json":
                json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""
            assert err.getvalue()


class TestFormats:
    def test_tsv_enumeration_is_one_row_per_element(self, capsys):
        code, out, err = run(
            capsys,
            ["--format", "tsv", "enumerate-pr", "--group", "gl:1",
             "--p", "3", "--r", "1"],
        )
        assert code == EXIT_OK
        assert out == "0\n1\n2\n"

    def test_tsv_classify_is_sorted_key_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["--format", "tsv", "classify", "--group", "gl:2", "--p", "2",
             "--r", "1", "--weight", "3,1"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        keys = [line.split("\t")[0] for line in lines]
        assert keys == sorted(keys)
        table = dict(line.split("\t") for line in lines)
        assert table["weight"] == "3,1"
        assert table["phi"] == "1"
        assert table["in_Pr"] == "false"
        assert table["lambda0"] == "1,1"

    def test_tsv_renders_none_and_properties(self, capsys):
        code, out, _ = run(
            capsys,
            ["--format", "tsv", "classify", "--group", "go:5", "--p", "2",
             "--r", "1", "--weight", "0,1,0,0,0"],
        )
        assert code == EXIT_OK
        table = dict(line.split("\t", 1) for line in out.splitlines())
        assert table["lambda0"] == "none"
        code, out, _ = run(
            capsys,
            ["--format", "tsv", "assumption-check", "--group", "gl:2",
             "--p", "2", "--r", "1", "--box-radius", "2"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split("\t")[0] == "positivity"
        assert lines[-1] == "all_ok\ttrue"

    def test_format_environment_default(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYWEIGHT_FORMAT", "tsv")
        code, out, _ = run(
            capsys,
            ["enumerate-pr", "--group", "gl:1", "--p", "3", "--r", "1"],
        )
        assert code == EXIT_OK
        assert out == "0\n1\n2\n"

    def test_explicit_format_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYWEIGHT_FORMAT", "tsv")
        payload = run_json(
            capsys,
            ["--format", "json", "enumerate-pr", "--group", "gl:1",
             "--p", "3", "--r", "1"],
        )
        assert payload["result"]["count"] == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--group", "gsp:4", "--p", "3", "--r", "1",
             "--weight", "1,2,0,1"],
            ["enumerate-pr", "--group", "gl:2", "--p", "2", "--r", "1"],
            ["--format", "tsv", "validate", "--group", "go:5"],
        ],
        ids=["classify", "enumerate", "validate-tsv"],
    )
    def test_repeated_requests_are_byte_identical(self, capsys, argv):
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        assert first[0] == EXIT_OK


class TestEntryPoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "classify", "--group",
             "gl:2", "--p", "2", "--r", "1", "--weight", "3,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["result"]["phi"] == [1]

    def test_module_execution_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", "classify", "--group",
             "gl:2", "--p", "9", "--r", "1", "--weight", "1,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == ""


GROUP_HELP = "group spec: gl:N | gsp:N | go:N | levi:N1,N2,..."
MODULUS_OPTIONS = [
    ("--group", True, None, None, GROUP_HELP),
    ("--p", True, int, None, "prime"),
    ("--r", True, int, None, "positive exponent"),
]
WEIGHT_OPTION = ("--weight", True, None, None, "comma-separated integers")

# subcommand -> (help line, [(flag, required, type, default, help)])
SUBCOMMANDS = {
    "classify": ("membership predicates and decomposition summary",
                 MODULUS_OPTIONS + [WEIGHT_OPTION]),
    "decompose": ("base digit plus p^r-multiple split",
                  MODULUS_OPTIONS + [WEIGHT_OPTION]),
    "enumerate-pr": ("all digit-set classes as canonical reps", MODULUS_OPTIONS),
    "validate": ("construction-hypothesis verdicts for a datum",
                 MODULUS_OPTIONS[:1]),
    "assumption-check": ("certify the functional's properties on a box",
                         MODULUS_OPTIONS
                         + [("--box-radius", False, int, None, None)]),
    "counterexample": ("even orthogonal rank-8 witness-failure scenario",
                       [("--prpower", True, int, None, "prime power p^r")]),
    "orbit-shift": ("shift-bijection check on an orbit slice",
                    MODULUS_OPTIONS + [
                        WEIGHT_OPTION,
                        ("--shift-i", True, int, None, None),
                        ("--box-radius", False, int, 6, None),
                    ]),
}


class TestParser:
    """The parser's subcommands and options, pinned one by one."""

    @staticmethod
    def subparsers():
        parser = build_parser()
        (action,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return action

    def test_subcommands_and_help_lines(self):
        action = self.subparsers()
        assert list(action.choices) == list(SUBCOMMANDS)
        assert [(c.dest, c.help) for c in action._choices_actions] == [
            (name, help_line) for name, (help_line, _) in SUBCOMMANDS.items()
        ]

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_options(self, name):
        sub = self.subparsers().choices[name]
        got = [
            (a.option_strings[0], a.required, a.type, a.default, a.help)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert got == SUBCOMMANDS[name][1]
        assert sub.prog == f"polyweight {name}"
