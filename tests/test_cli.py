import contextlib
import errno
import gc
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fractree
from fractree import cli, construct, sequences


def run_cli(*args):
    """Call ``fractree.cli.main`` in-process, capturing the exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_module(*args, env=None, stdout=subprocess.PIPE):
    """Run ``python -m fractree.cli`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "fractree.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


def assert_clean_error(r, code):
    """Exit ``code`` with a one-line ``error:`` message and no traceback."""
    assert r.returncode == code
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_carries_between_calls(self):
        r = run_cli("count", "cycle", "3", "2", "2", "--json")
        assert json.loads(r.stdout)["formula"]["decimal"]
        r = run_cli("count", "cycle", "3", "2", "2")
        assert r.returncode == 0
        assert r.stdout.startswith("formula: ")


class TestGenerate:
    def test_edgelist_line_count(self):
        r = run_cli("generate", "--family", "cycle", "-n", "3", "-m", "2", "-i", "1",
                    "--format", "edgelist")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 15
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)

    def test_json_wheel_base(self):
        r = run_cli("generate", "--family", "wheel", "-n", "4", "-m", "2", "-i", "0",
                    "--format", "json")
        assert r.returncode == 0
        d = json.loads(r.stdout)
        assert len(d["vertices"]) == 5 and len(d["edges"]) == 8

    def test_dot(self):
        r = run_cli("generate", "cycle", "3", "2", "0", "--format", "dot")
        assert r.returncode == 0
        assert r.stdout.startswith("graph G {")

    def test_positional_shorthand(self):
        flags = run_cli("generate", "--family", "cycle", "--n", "3", "--m", "2", "--stage", "1")
        pos = run_cli("generate", "cycle", "3", "2", "1")
        assert flags.stdout == pos.stdout

    def test_bad_n_exits_2(self):
        r = run_module("generate", "cycle", "2", "2", "1")
        assert r.returncode == 2

    def test_missing_params_exits_2(self):
        r = run_cli("generate", "cycle")
        assert r.returncode == 2

    def test_size_cap_exits_3(self):
        r = run_module("generate", "cycle", "3", "2", "9")
        assert r.returncode == 3

    def test_cap_env_override(self, tmp_path):
        env = dict(os.environ, FRACTREE_MAX_VERTICES="10")
        r = run_module("generate", "cycle", "3", "2", "1", env=env)
        assert r.returncode == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_cap_env_exits_2(self, monkeypatch, value):
        monkeypatch.setenv("FRACTREE_MAX_VERTICES", value)
        r = run_cli("generate", "cycle", "3", "2", "1")
        assert_clean_error(r, 2)
        assert "FRACTREE_MAX_VERTICES" in r.stderr

    def test_unwritable_out_exits_2(self, tmp_path):
        missing = str(tmp_path / "missing" / "x")
        assert_clean_error(run_cli("generate", "cycle", "3", "2", "1", "--out", missing), 2)
        assert_clean_error(run_cli("verify", "--quick", "--json", missing), 2)

    def test_cap_refusal_creates_no_out_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        assert_clean_error(run_cli("generate", "cycle", "3", "2", "9", "--out", str(path)), 3)
        monkeypatch.setenv("FRACTREE_MAX_VERTICES", "10")
        assert_clean_error(run_cli("generate", "cycle", "3", "2", "1", "--out", str(path)), 3)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["edgelist", "json", "dot"])
    def test_out_write_failure_exits_2(self, tmp_path, fmt):
        # a directory cannot be opened; /dev/full fails on the first write
        targets = [str(tmp_path)] + (["/dev/full"] if os.path.exists("/dev/full") else [])
        for target in targets:
            r = run_cli("generate", "wheel", "4", "2", "3", "--format", fmt, "--out", target)
            assert_clean_error(r, 2)
            assert r.stderr.count("\n") == 1 and r.stdout == ""

    def test_out_file(self, tmp_path):
        path = tmp_path / "g.edges"
        r = run_cli("generate", "cycle", "4", "2", "0", "--out", str(path))
        assert r.returncode == 0
        assert path.read_text() == "0 1\n0 3\n1 2\n2 3\n"

    def test_byte_identical_runs(self):
        a = run_cli("generate", "wheel", "4", "2", "1", "--format", "json")
        b = run_cli("generate", "wheel", "4", "2", "1", "--format", "json")
        assert a.stdout == b.stdout


@pytest.mark.parametrize("target", ["closed-pipe", "/dev/full"])
@pytest.mark.parametrize("argv, unbuffered", [
    ("count cycle 3 2 2", False), ("count cycle 3 2 2", True), ("verify --quick", False),
    ("verify --quick", True), ("--help", False),  # argparse drops an unbuffered one itself
])
def test_unwritable_stdout_exits_2(target, argv, unbuffered):
    """One error line and exit 2, whether the write fails at once or at the
    flush, with nothing left to fail as the interpreter exits."""
    if target == "closed-pipe":
        read, stdout = os.pipe()
        os.close(read)
    elif os.path.exists(target):
        stdout = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"needs {target}")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    try:
        r = run_module(*argv.split(), env=env, stdout=stdout)
    finally:
        os.close(stdout)
    error = os.strerror(errno.EPIPE if target == "closed-pipe" else errno.ENOSPC)
    assert (r.returncode, r.stderr) == (2, f"error: cannot write stdout: {error}\n")


class TestExportMemory:
    # what an export may hold at once beyond the build's own peak: a few
    # chunks, whatever the size of the graph (its texts here are 0.2-2 MiB)
    BUDGET = 1 << 19

    @pytest.mark.parametrize("fmt", ["edgelist", "json", "dot"])
    def test_streamed_export_adds_a_bounded_budget(self, tmp_path, fmt):
        path = tmp_path / f"g.{fmt}"
        cli._build_parser()
        gc.collect()
        tracemalloc.start()
        try:
            construct.build(fractree.FractalParams(fractree.Family.CYCLE, 3, 2, 6))
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code = cli.main(["generate", "cycle", "3", "2", "6", "--format", fmt,
                             "--out", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.stat().st_size > 200_000
        assert peak <= build_peak + self.BUDGET


class TestCount:
    def test_all_methods_agree(self):
        r = run_cli("count", "cycle", "3", "2", "2", "--method", "all")
        assert r.returncode == 0
        assert "1377495072" in r.stdout
        assert "3^16" in r.stdout and "2^5" in r.stdout
        assert "all methods agree" in r.stdout

    def test_formula_wheel(self):
        r = run_cli("count", "wheel", "4", "2", "1", "--method", "formula")
        assert r.returncode == 0
        assert "45^6" in r.stdout and "2^4" in r.stdout
        assert "132860250000" in r.stdout

    def test_base_cycle(self):
        r = run_cli("count", "cycle", "3", "2", "0")
        assert r.returncode == 0
        assert "3^1 = 3" in r.stdout

    def test_json_output(self):
        r = run_cli("count", "cycle", "3", "2", "1", "--method", "all", "--json")
        d = json.loads(r.stdout)
        assert d["agree"] is True
        assert d["formula"]["decimal"] == "162"
        assert d["formula"]["digits"] == 3
        assert d["formula"]["factored"] == {"factors": [[2, "1"], [3, "4"]]}

    def test_matrix_tree_respects_cap(self):
        # stage-4 cycle graph has 942 vertices; formula is fine
        r = run_cli("count", "cycle", "3", "2", "4", "--method", "formula")
        assert r.returncode == 0
        assert "3^286" in r.stdout

    def test_matrix_tree_over_cap_exits_3(self):
        # stage-7 cycle graph has 75,036 vertices, over the 25,000 oracle cap
        r = run_cli("count", "cycle", "3", "2", "7", "--method", "matrix-tree")
        assert_clean_error(r, 3)
        assert "cap of 25000" in r.stderr
        assert r.stdout == ""

    def test_matrix_tree_cap_checked_before_build(self, monkeypatch, capsys):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built for a count over the oracle cap")

        monkeypatch.setattr(cli.construct, "build", no_build)
        assert cli.main(["count", "cycle", "3", "2", "7", "--method", "matrix-tree"]) == 3
        assert cli.main(["count", "cycle", "3", "2", "7", "--method", "all"]) == 3
        assert "cap of 25000" in capsys.readouterr().err

    def test_expansion_over_bit_cap_exits_3(self):
        r = run_module("count", "cycle", "3", "2", "30")
        assert_clean_error(r, 3)
        assert r.stdout == ""

    @pytest.mark.parametrize("stage, size", [("12", "6.325e+07"), ("20000", "over 10^308")])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_expansion_over_bit_cap_reports_size_not_digits(self, stage, size, json_flag):
        # at stage 20000 the count's exponents pass the int-to-str digit limit
        r = run_cli("count", "cycle", "3", "2", stage, "--method", "formula", *json_flag)
        assert_clean_error(r, 3)
        assert r.stdout == ""
        assert r.stderr == f"error: expansion would need {size} bits, past the 16777216-bit cap\n"
        assert len(r.stderr) < 200

    def test_count_over_int_str_digit_limit(self):
        # 2^6883*3^22720 has 12,913 digits, over the interpreter's 4,300
        r = run_cli("count", "cycle", "3", "2", "7")
        assert r.returncode == 0
        head, digits = r.stdout.rstrip("\n").rsplit(" (", 1)
        text = head.split(" = ")[1]
        assert digits == "12913 digits)" and len(text) == 12_913
        assert text[-40:] == str(3**22_720 * 2**6_883 % 10**40)
        # the leading digits, from the logarithm of the count
        log10 = 22_720 * math.log10(3) + 6_883 * math.log10(2)
        assert text[:8] == str(int(10 ** (log10 % 1 + 7)))

    def test_json_count_over_int_str_digit_limit(self):
        r = run_cli("count", "wheel", "6", "3", "4", "--json")
        assert r.returncode == 0
        formula = json.loads(r.stdout)["formula"]
        assert len(formula["decimal"]) == formula["digits"] == 24_087

    def test_all_methods_agree_over_int_str_digit_limit(self):
        # 17,284 vertices and a 4,818-digit count, through every route
        r = run_cli("count", "wheel", "7", "4", "3", "--method", "all")
        assert r.returncode == 0
        assert r.stdout.endswith("agreement: all methods agree\n")
        assert r.stdout.count("(4818 digits)") == 3

    def test_module_prints_count_over_int_str_digit_limit(self):
        r = run_module("count", "cycle", "3", "2", "7")
        assert r.returncode == 0
        assert "Traceback" not in r.stderr
        assert r.stdout.endswith("(12913 digits)\n")


class TestInvariants:
    def test_entropy(self):
        r = run_cli("invariants", "entropy", "cycle", "3", "2")
        assert r.returncode == 0
        assert "1.704656346" in r.stdout
        assert "0.396175978" in r.stdout
        assert r.stdout.count("1.704656346") == 2  # limit and closed form

    def test_entropy_steps_the_recurrence_once(self, monkeypatch):
        passes = []
        original = sequences._exponent_sums_of

        def counted(a, b, u1, upto):
            passes.append(upto)
            return original(a, b, u1, upto)

        monkeypatch.setattr(sequences, "_exponent_sums_of", counted)
        r = run_cli("invariants", "entropy", "wheel", "4", "3", "--iters", "400")
        assert r.returncode == 0
        assert passes == [400]

    def test_entropy_iters_flag(self):
        r = run_cli("invariants", "entropy", "wheel", "4", "2", "--iters", "30")
        assert r.returncode == 0
        assert "5.04589" in r.stdout

    def test_entropy_closed_out_of_domain(self):
        r = run_cli("invariants", "entropy", "cycle", "3", "3")
        assert r.returncode == 0
        assert "not applicable" in r.stdout

    def test_census_m3(self):
        r = run_cli("invariants", "census", "cycle", "3", "3", "--stage", "2")
        assert r.returncode == 0
        assert "stage-0 copies: 6" in r.stdout  # structural count, with (m-1)
        assert "match: True" in r.stdout

    def test_clustering_cycle(self):
        r = run_cli("invariants", "clustering", "cycle", "3", "2", "--stage", "1")
        d = json.loads(r.stdout)
        assert d["average"] == "13/24"
        assert d["closed_form"] == "13/24"
        assert d["match"] is True
        assert d["published"] == "13/24"

    def test_clustering_wheel_records_published_value(self):
        r = run_cli("invariants", "clustering", "wheel", "5", "2", "--stage", "1")
        d = json.loads(r.stdout)
        assert d["average"] == "829/1932"
        assert d["closed_form"] == "829/1932"
        assert d["match"] is True
        assert d["published"] == "815/1932"
        assert d["published_match"] is False

    @pytest.mark.parametrize("which", ["clustering", "census", "degrees"])
    def test_clustering_requires_stage(self, which):
        assert_clean_error(run_cli("invariants", which, "cycle", "3", "2"), 2)

    def test_entropy_defaults_to_stage_zero(self):
        r = run_cli("invariants", "entropy", "cycle", "3", "2")
        assert r.returncode == 0
        assert r.stdout == run_cli("invariants", "entropy", "cycle", "3", "2", "0").stdout

    @pytest.mark.parametrize("args", [
        ["entropy", "cycle", "3", "2", "7"],
        ["entropy", "cycle", "3", "2", "--stage", "7"],
        ["entropy", "cycle", "3", "2", "--upto", "5"],
        ["sizes", "cycle", "3", "2", "--iters", "5"],
        ["clustering", "cycle", "3", "2", "1", "--upto", "5", "--iters", "9"],
        ["clustering", "cycle", "3", "2", "1", "--upto", "5"],
        ["census", "cycle", "3", "2", "1", "--iters", "5"],
        ["degrees", "cycle", "3", "2", "1", "--upto", "5"],
    ], ids="_".join)
    def test_rejects_ignored_options(self, args):
        r = run_cli("invariants", *args)
        assert_clean_error(r, 2)
        assert len(r.stderr.splitlines()) == 1
        assert r.stdout == ""

    def test_sizes(self):
        r = run_cli("invariants", "sizes", "cycle", "3", "2", "-i", "2", "--upto", "5")
        assert r.returncode == 0
        assert "1, 3, 12, 51, 219, 942" in r.stdout
        assert "51 vertices" in r.stdout

    def test_sizes_over_int_str_digit_limit(self):
        r = run_cli("invariants", "sizes", "wheel", "64", "64", "-i", "2100", "--upto", "2100")
        assert r.returncode == 0
        u_line, _, stage_line = r.stdout.splitlines()
        vertices = stage_line.split()[2]
        assert len(vertices) > 4300 and u_line.endswith(", " + vertices)
        # the last digits, from the coupled recurrence taken mod 10^30
        u, e = 1, 0
        for _ in range(2101):
            u, e = (65 * u + 63 * e) % 10**30, (128 * u + 64 * e) % 10**30
        assert vertices[-30:] == str(u).zfill(30)

    def test_census(self):
        r = run_cli("invariants", "census", "cycle", "3", "2", "--stage", "2")
        assert r.returncode == 0
        assert "stage-1 copies: 3" in r.stdout
        assert "stage-0 copies: 3" in r.stdout
        assert "match: True" in r.stdout

    def test_degrees(self):
        r = run_cli("invariants", "degrees", "wheel", "5", "2", "--stage", "1")
        assert r.returncode == 0
        assert "match: True" in r.stdout


class TestSurface:
    def test_grid(self):
        r = run_cli("surface", "cycle", "3..6", "2..4")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "family,n,m,sigma_offset,sigma_same,sigma_closed"
        assert len(lines) == 13  # header + 4*3 rows
        row32 = lines[1].split(",")
        assert row32[:3] == ["cycle", "3", "2"]
        assert row32[3].startswith("1.704656346")

    def test_wheel_row_value(self):
        r = run_cli("surface", "wheel", "4..4", "2..2")
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[3].startswith("5.04589")

    def test_bad_range_exits_2(self):
        assert run_cli("surface", "cycle", "1..4", "2..3").returncode == 2
        assert run_cli("surface", "cycle", "6..3", "2..3").returncode == 2
        assert run_cli("surface", "cycle", "3..4", "2..100").returncode == 2
        assert run_cli("surface", "cycle", "x", "2..3").returncode == 2

    def test_deterministic(self):
        a = run_cli("surface", "cycle", "3..4", "2..3")
        b = run_cli("surface", "cycle", "3..4", "2..3")
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("command, digest", [
        ("surface cycle 3..64 2..64",
         "162816d8f5949bc908eaa5baabee204fef5d83c4f7893b2ccc77ceeb45bcd1cc"),
        ("surface wheel 3..56 2..64",
         "d9d6625c999dee0d0db9b69854d00a87e80cab4f6a91ee46de98ce9cfce9c97b"),
        ("surface wheel 9..64 2..64",
         "d1d9adb7b4cb21313ca7adfcc52ae0c7e4d342bfa67c2d37a2359a2b010e40ef"),
        ("invariants entropy cycle 5 2",
         "ec493eafe52f7a2d8cc876212a236b363e5a235075e8b708f5445494a6c546e1"),
        ("invariants entropy wheel 4 3 --iters 400",
         "fa07ed98ad4b63fcf89991695869b4ec0869bfba6a98adb6e2823e4ae5bba1e4"),
        ("invariants entropy cycle 7 3 --iters 400",
         "2e47963e4cbe36a5f6faa79b2a8828bf0fc2d5ef02968a7dbf9dce61505ac08e"),
    ])
    def test_stdout_pinned(self, command, digest):
        # every printed float of the large surfaces and entropy runs, pinned
        r = run_cli(*command.split())
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


class TestRecurrenceCaps:
    @pytest.mark.parametrize("args, message", [
        ("count wheel 64 64 1000000 --method formula",
         "stage 1000000 would step vertex counts to about 7.270e+06 bits, past the 65536-bit cap"),
        ("invariants entropy cycle 3 2 --iters 1000000",
         "--iters 1000000 would step vertex counts to about 2.105e+06 bits, past the 65536-bit cap"),
        ("invariants sizes cycle 3 2 --upto 20000",
         "invariants sizes to index 20000 would print about 2.535e+08 digits, "
         "past the 16777216-digit cap"),
        ("invariants sizes cycle 3 2 -i 20000",
         "invariants sizes to index 20001 would print about 2.535e+08 digits, "
         "past the 16777216-digit cap"),
        ("generate cycle 3 2 1000000",
         "stage 1000000 would step vertex counts to about 2.105e+06 bits, past the 65536-bit cap"),
        ("count wheel 20000 3 0",
         "wheel n = 20000 would step its base count to about 8.360e+03 digits, "
         "past the 4300-digit cap"),
        ("invariants entropy wheel 20000 3",
         "wheel n = 20000 would step its base count to about 8.360e+03 digits, "
         "past the 4300-digit cap"),
        ("count cycle 3 2 " + "9" * 400,
         "stage at least 2^1328 would step vertex counts to over 10^308 bits, "
         "past the 65536-bit cap"),
    ])
    def test_refused_before_any_work(self, monkeypatch, args, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a recurrence was stepped past the cap")

        for name in ("_exponent_sums_of", "size_sequences", "vertex_count",
                     "tau_wheel_base"):
            monkeypatch.setattr(sequences, name, no_work)
        # spanning binds its own name for the closed-form sums
        monkeypatch.setattr(cli.spanning, "_exponent_sums_of", no_work)
        r = run_cli(*args.split())
        assert_clean_error(r, 3)
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"

    def test_under_the_caps(self):
        # the largest wheel base that prints as a JSON int, and deep stages
        # that reach the vertex and determinant caps without a traceback
        r = run_cli("count", "wheel", "10250", "3", "0", "--json")
        assert r.returncode == 0
        assert json.loads(r.stdout)["formula"]["digits"] == 4285
        r = run_cli("generate", "cycle", "3", "2", "20000")
        assert r.stderr == ("error: stage 20000 graph would have at least 2^42106 vertices, "
                            "cap is 1000000\n")
        r = run_cli("count", "cycle", "3", "2", "3000", "--method", "matrix-tree")
        assert r.stderr == "error: at least 2^6317 vertices exceeds the determinant cap of 25000\n"
        for which in ("census", "degrees", "clustering"):
            assert_clean_error(run_cli("invariants", which, "wheel", "4", "3", "30000"), 3)

    def test_entropy_closed_form_past_float_range(self):
        r = run_cli("invariants", "entropy", "wheel", "600", "3")
        assert r.returncode == 0
        assert r.stdout.endswith(
            "closed-form: not applicable (entropy formula at n=600, m=3 passes float range)\n"
        )


_FUZZ_BUDGET_S = 2.0
_FUZZ_NUMBERS = st.one_of(
    st.integers(-3, 40),
    st.integers(10**5, 10**60),
    st.sampled_from([10**4000, -(10**4000)]),
).map(str) | st.sampled_from(["", "x", "1.5", "1e9", "0x10", "-", "3..", "9" * 5000])
_FUZZ_FAMILIES = st.sampled_from(["cycle", "wheel", "tree", ""])


def _optional(flag, values):
    return st.just([]) | values.map(lambda v: [flag, v])


def _fuzz_argvs():
    stage = st.just([]) | _FUZZ_NUMBERS.map(lambda v: [v])
    params = st.tuples(_FUZZ_FAMILIES, _FUZZ_NUMBERS, _FUZZ_NUMBERS).map(list)
    ranges = _FUZZ_NUMBERS | st.tuples(_FUZZ_NUMBERS, _FUZZ_NUMBERS).map("..".join)
    parts = {
        "generate": [params, stage,
                     _optional("--format", st.sampled_from(["edgelist", "json", "dot", "png"]))],
        "count": [params, stage,
                  _optional("--method",
                            st.sampled_from(["formula", "matrix-tree", "blocks", "all", "x"])),
                  st.sampled_from([[], ["--json"]])],
        "invariants": [st.sampled_from(
                           ["entropy", "clustering", "sizes", "census", "degrees", "x"]
                       ).map(lambda w: [w]),
                       params, stage,
                       _optional("--iters", _FUZZ_NUMBERS), _optional("--upto", _FUZZ_NUMBERS)],
        "surface": [st.tuples(_FUZZ_FAMILIES, ranges, ranges).map(list)],
        "verify": [st.sampled_from([[], ["--quick"], ["--bogus"]])],
    }
    return st.one_of(
        st.tuples(*strategies).map(lambda lists, c=command: [c] + sum(lists, []))
        for command, strategies in parts.items()
    )


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_fuzz_argvs())
    def test_every_command_exits_cleanly(self, argv):
        may_mismatch = argv[0] == "verify" or any(
            argv[k:k + 2] == ["--method", "all"] for k in range(len(argv))
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("FRACTREE_MAX_VERTICES", "3000")
            start = time.perf_counter()
            r = run_cli(*argv)
            elapsed = time.perf_counter() - start
        assert r.returncode in ({0, 1, 2, 3} if may_mismatch else {0, 2, 3})
        assert "Traceback" not in r.stderr
        if r.returncode:
            assert r.stderr.startswith(("error: ", "usage: "))
        assert elapsed < _FUZZ_BUDGET_S


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "report.json"
    r = run_cli("verify", "--quick", "--json", str(path))
    return r, path


class TestVerify:
    def test_exit_zero_and_table(self, result):
        r, _ = result
        assert r.returncode == 0
        assert "MATCH" in r.stdout
        assert "mismatch: 0" in r.stdout

    def test_json_report(self, result):
        _, path = result
        d = json.loads(path.read_text())
        assert d["summary"]["mismatch"] == 0
        assert d["summary"]["informational"] >= 4
        assert set(d["coverage"]) == {
            "arith", "graph", "construct", "spanning", "sequences", "clustering",
        }

    def test_json_header(self, result):
        _, path = result
        d = json.loads(path.read_text())
        assert list(d)[:4] == ["level", "python", "fractree", "seconds"]
        assert d["level"] == "quick"
        assert d["python"] == platform.python_version()
        assert d["fractree"] == fractree.__version__
        # the wall time of the run covers every timed route in it
        assert d["seconds"] >= sum(c["seconds"] for c in d["checks"]) > 0


def test_package_runs_as_module():
    package = subprocess.run([sys.executable, "-m", "fractree", "verify", "--quick"],
                             capture_output=True, text=True)
    assert package.returncode == 0
    assert package.stdout == run_module("verify", "--quick").stdout
