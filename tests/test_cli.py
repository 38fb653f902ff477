"""End-to-end command-line tests with golden outputs."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import slmatch
from slmatch import (
    build_graph,
    complete_graph,
    empty_graph,
    encode_graph6,
    errors,
    proof_harness,
    sample_connected,
    verify,
)
from slmatch.cli import main
from slmatch.spectral import MAX_DENSE_ORDER


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, stdout=buffer)
    return code, buffer.getvalue()


def test_q1_graph6():
    code, out = run_cli(["q1", "--graph6", "C~"])
    assert code == 0
    assert out == "6\n"


def test_q1_edge_list(tmp_path):
    path = tmp_path / "p3.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out = run_cli(["q1", "--edges", str(path)])
    assert code == 0
    assert out == "3\n"


def test_threshold_n6():
    code, out = run_cli(["threshold", "--n", "6"])
    assert code == 0
    assert out == (
        "n 6\n"
        "q1_threshold 7.46410161514\n"
        "r_n 6.90951596616\n"
        "edge_threshold 9\n"
    )


@pytest.mark.parametrize("n", ["5", "2"])
def test_threshold_refused_order_prints_nothing(n):
    assert run_cli(["threshold", "--n", n]) == (2, "")


def test_rn_with_closed_form():
    code, out = run_cli(["rn", "--n", "8", "--closed-form"])
    assert code == 0
    assert out == "r_n 10.5136025044\nclosed_form 10.5136025044\n"


def test_check_k4():
    code, out = run_cli(["check", "--graph6", "C~"])
    assert code == 0
    assert out == (
        "graph6 C~\n"
        "n 4\n"
        "edges 6\n"
        "q1 6\n"
        "q1_threshold 4\n"
        "edge_threshold 3\n"
        "has_pm true\n"
        "verdict conclusion-holds\n"
        "witness null\n"
    )


def test_check_writes_jsonl(tmp_path):
    out_path = tmp_path / "record.jsonl"
    code, _ = run_cli(["check", "--graph6", "C~", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "conclusion-holds"


def test_verify_exhaustive_4(tmp_path):
    out_path = tmp_path / "records.jsonl"
    code, out = run_cli(["verify", "--exhaustive", "4", "--out", str(out_path)])
    assert code == 0
    assert out == (
        "checked 38\n"
        "expected 38\n"
        "verdict boundary 7\n"
        "verdict conclusion-holds 19\n"
        "verdict hypothesis-not-met 12\n"
        "counterexamples 0\n"
        "edge-violations 0\n"
    )
    lines = out_path.read_text().splitlines()
    assert len(lines) == 38
    assert all("graph6" in json.loads(line) for line in lines)


def test_verify_graph6_file(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(">>graph6<<\nC~\nBw\nnot graph6 at all!\n")
    code, out = run_cli(["verify", "--graph6-file", str(corpus)])
    assert code == 0
    assert "checked 1\n" in out
    assert "skipped odd-order 1\n" in out
    assert "skipped parse-error 1\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--exhaustive", "5"],
        ["--random", "12", "--count", "5"],
        ["--random", "12", "--p", "1.5", "--count", "5"],
        ["--exhaustive", "4", "--jobs", "0"],
        ["--graph6-file", "missing.g6"],
    ],
)
def test_refused_verify_leaves_the_out_file_as_it_was(argv, tmp_path, capsys):
    out_path = tmp_path / "keep.jsonl"
    out_path.write_bytes(b"keep\n")
    argv = [str(tmp_path / arg) if arg.endswith(".g6") else arg for arg in argv]
    assert run_cli(["verify", *argv, "--out", str(out_path)]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")
    assert out_path.read_bytes() == b"keep\n"


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
@pytest.mark.parametrize(
    "command, source, text",
    [("verify", "--graph6-file", "C~\nC~\n"), ("check", "--edges", "4 3\n0 1\n1 2\n2 3\n")],
    ids=["verify", "check"],
)
def test_an_out_that_is_the_input_file_is_refused(command, source, text, link, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    out_path = path
    if link:
        out_path = tmp_path / "link"
        out_path.symlink_to(path)
    assert run_cli([command, source, str(path), "--out", str(out_path)]) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: --out {out_path} would overwrite the input file {path}\n"
    assert path.read_text() == text


def test_verify_with_no_records_still_writes_an_empty_out_file(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Bw\n")
    out_path = tmp_path / "records.jsonl"
    out_path.write_bytes(b"stale\n")
    code, out = run_cli(["verify", "--graph6-file", str(corpus), "--out", str(out_path)])
    assert code == 0
    assert "checked 0\n" in out
    assert out_path.read_bytes() == b""


def test_verify_graph6_file_counts_a_non_utf8_byte_as_a_parse_error(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"C~\nC\xff\nC~\n")
    code, out = run_cli(["verify", "--graph6-file", str(corpus)])
    assert code == 0
    assert "checked 2\n" in out
    assert "skipped parse-error 1\n" in out


def test_verify_graph6_file_keeps_non_ascii_whitespace_in_the_line(tmp_path):
    # latin-1 reads \xa0 and \x85 as Unicode whitespace; they are still bad bytes
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"C~\xa0\nC~\x85\nC~\x1c\nC~\n")
    code, out = run_cli(["verify", "--graph6-file", str(corpus)])
    assert code == 0
    assert "checked 1\n" in out
    assert "skipped parse-error 3\n" in out


def test_verify_parallel_jsonl_is_byte_identical_to_serial(tmp_path):
    # mixed orders give chunks of unequal cost, which finish out of order;
    # workers certify the dense G(200, 1/2) and G(250, 1/2) by Lanczos, while
    # on the path of order 200 Lanczos gives up for `eigvalsh`
    rng = random.Random(5)
    lines = [
        encode_graph6(G)
        for n in (4, 6, 8, 10, 16, 24, 40)
        for G in sample_connected(n, 0.6, 40, seed=n)
    ]
    lines += [encode_graph6(G) for n in (200, 250) for G in sample_connected(n, 0.5, 1, seed=n)]
    lines.append(encode_graph6(build_graph(200, [(i, i + 1) for i in range(199)])))
    rng.shuffle(lines)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(lines) + "\n")
    outputs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"jobs{jobs}.jsonl"
        code, out = run_cli(
            ["verify", "--graph6-file", str(corpus), "--jobs", jobs, "--out", str(out_path)]
        )
        assert code == 0 and "checked 283\n" in out
        outputs.append((out, out_path.read_bytes()))
    assert outputs[1] == outputs[0]


def test_verify_random_seeded():
    code, out = run_cli(
        ["verify", "--random", "8", "--p", "0.6", "--count", "5", "--seed", "1"]
    )
    assert code == 0
    assert out.startswith("checked 5\n")
    assert "counterexamples 0\n" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_random_that_cannot_sample_exits_2(jobs, capsys):
    argv = ["verify", "--random", "12", "--p", "0.01", "--count", "3", "--jobs", jobs]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: gave up after ")


def test_verify_random_above_the_dense_order_cap_exits_2_before_sampling(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an oversize order was sampled")

    monkeypatch.setattr(slmatch.verify, "_sample_with_graph6", refuse)
    argv = ["verify", "--random", str(MAX_DENSE_ORDER + 2), "--p", "0.5", "--count", "1"]
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == "error: dense Q supports orders up to 4096, got 4098\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_jobs_below_one_exits_2(jobs, capsys):
    assert run_cli(["verify", "--exhaustive", "4", "--jobs", jobs]) == (2, "")
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize(
    ("jobs", "cpus", "pools"), [(5000, 3, [3]), (2, 3, [2]), (5000, None, [])]
)
def test_verify_pool_is_capped_at_the_cpu_count(jobs, cpus, pools, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records its size and runs each chunk in this process: no worker is
        started."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, func, args):
            records = func(*args)
            return SimpleNamespace(get=lambda: records)

    monkeypatch.setattr(verify.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    assert run_cli(["verify", "--exhaustive", "4", "--jobs", str(jobs)]) == run_cli(
        ["verify", "--exhaustive", "4"]
    )
    assert sizes == pools


def test_verify_random_needs_parameters():
    code, _ = run_cli(["verify", "--random", "8"])
    assert code == 2


def test_extremal_default_reports_sharpness():
    code, out = run_cli(["extremal", "--n", "6", "--emit-graph6"])
    assert code == 0
    assert out == (
        "n 6\n"
        "edges 9\n"
        "q1 7.46410161514\n"
        "q1_threshold 7.46410161514\n"
        "has_pm false\n"
        "witness 0,1\n"
        "sharp true\n"
        "E}r?\n"
    )


@pytest.mark.parametrize(
    "n, golden",
    [
        (
            4,
            "n 4\nedges 3\nq1 4\nq1_threshold 4\n"
            "has_pm false\nwitness 0\nsharp true\nCs\n",
        ),
        (
            6,
            "n 6\nedges 9\nq1 7.46410161514\nq1_threshold 7.46410161514\n"
            "has_pm false\nwitness 0,1\nsharp true\nE}r?\n",
        ),
        (
            8,
            "n 8\nedges 18\nq1 10.8989794856\nq1_threshold 10.8989794856\n"
            "has_pm false\nwitness 0,1,2\nsharp true\nG~zfF?\n",
        ),
        (
            10,
            "n 10\nedges 30\nq1 14.3469137257\nq1_threshold 14.3469137257\n"
            "has_pm false\nwitness 0\nsharp true\nI~~~~}?_?\n",
        ),
        (
            12,
            "n 12\nedges 47\nq1 18.2598100799\nq1_threshold 18.2598100799\n"
            "has_pm false\nwitness 0\nsharp true\nK~~~~~~~{?O?\n",
        ),
    ],
)
def test_extremal_goldens(n, golden):
    assert run_cli(["extremal", "--n", str(n), "--emit-graph6"]) == (0, golden)


def test_extremal_odd_order_exits_2():
    assert run_cli(["extremal", "--n", "7"])[0] == 2


def test_proof_check_instance():
    code, out = run_cli(["proof-check", "--instance", "1,3,1,1"])
    assert code == 0
    assert out == (
        "root-bounds s=1 parts=[3, 1, 1] (n=6): PASS\n"
        "vertex-shift s=1 parts=[3, 1, 1] (n=6): SKIP\n"
        "merge-singletons s=1 parts=[3, 1, 1] (n=6): SKIP\n"
    )


def test_proof_check_all_small():
    code, out = run_cli(["proof-check", "--all", "--nmax", "6"])
    assert code == 0
    assert "root-bounds pass" in out
    assert "case-analysis pass" in out
    assert "FAIL" not in out
    assert "transcription m1_expansion_alternating" in out
    assert "MISMATCH" in out  # the alternating-sign expansion really disagrees
    assert "transcription m4_cubic" in out


def _perturb_scenario_q1(monkeypatch):
    """Scale every full-graph q1 by 1 + 1e-6, outside the 1e-8 quotient match."""
    real_q1 = proof_harness.q1
    monkeypatch.setattr(proof_harness, "q1", lambda G: real_q1(G) * (1 + 1e-6))
    proof_harness._scenario_q1.cache_clear()


def test_proof_check_instance_exits_1_on_a_failed_check(monkeypatch):
    _perturb_scenario_q1(monkeypatch)
    code, out = run_cli(["proof-check", "--instance", "1,3,1,1"])
    assert code == 1
    assert out.startswith("root-bounds s=1 parts=[3, 1, 1] (n=6): FAIL\n")


def test_proof_check_all_exits_1_on_a_failed_check(monkeypatch):
    _perturb_scenario_q1(monkeypatch)
    code, out = run_cli(["proof-check", "--all", "--nmax", "6"])
    assert code == 1
    tally = next(line for line in out.splitlines() if line.startswith("root-bounds pass"))
    assert int(tally.split()[-1]) > 0
    assert "\nFAIL root-bounds s=" in out
    assert "transcription m4_cubic at n=6 s=1: agrees (exact)\n" in out


def test_proof_check_text_ignores_rounding_noise(monkeypatch):
    argv = ["proof-check", "--all", "--nmax", "8"]
    code, before = run_cli(argv)
    real_q1 = proof_harness.q1
    monkeypatch.setattr(proof_harness, "q1", lambda G: real_q1(G) * (1 + 1e-14))
    proof_harness._scenario_q1.cache_clear()  # solve every scenario again, perturbed
    assert run_cli(argv) == (code, before)
    assert "agrees (exact)" in before


PROOF_CHECK_ALL_40 = """\
case-analysis pass 49 skip 0 fail 0
h-bound pass 171 skip 0 fail 0
merge-singletons pass 164 skip 86 fail 0
root-bounds pass 250 skip 0 fail 0
vertex-shift pass 128 skip 122 fail 0
transcription m1_expansion_alternating at s=1 parts=[3, 1, 1] (n=6): MISMATCH (max rel err 8.33e-01)
transcription m1_expansion_all_negative at s=1 parts=[3, 1, 1] (n=6): agrees (exact)
transcription m3_expansion at s=1 parts=[3, 1, 1] (n=6): agrees (exact)
transcription m1_expansion_alternating at s=1 parts=[1, 1, 1] (n=4): MISMATCH (max rel err 1.80e+01)
transcription m1_expansion_all_negative at s=1 parts=[1, 1, 1] (n=4): agrees (exact)
transcription m3_expansion at s=1 parts=[1, 1, 1] (n=4): agrees (exact)
transcription m1_expansion_alternating at s=1 parts=[7, 1, 1] (n=10): MISMATCH (max rel err 3.10e-01)
transcription m1_expansion_all_negative at s=1 parts=[7, 1, 1] (n=10): agrees (exact)
transcription m3_expansion at s=1 parts=[7, 1, 1] (n=10): agrees (exact)
transcription m1_expansion_alternating at s=2 parts=[3, 1, 1, 1] (n=8): MISMATCH (max rel err 4.00e+01)
transcription m1_expansion_all_negative at s=2 parts=[3, 1, 1, 1] (n=8): agrees (exact)
transcription m3_expansion at s=2 parts=[3, 1, 1, 1] (n=8): agrees (exact)
transcription m1_expansion_alternating at s=2 parts=[5, 3, 1, 1] (n=12): MISMATCH (max rel err 3.20e+01)
transcription m1_expansion_all_negative at s=2 parts=[5, 3, 1, 1] (n=12): agrees (exact)
transcription m1_expansion_alternating at s=3 parts=[1, 1, 1, 1, 1] (n=8): MISMATCH (max rel err 1.20e+01)
transcription m1_expansion_all_negative at s=3 parts=[1, 1, 1, 1, 1] (n=8): agrees (exact)
transcription m3_expansion at s=3 parts=[1, 1, 1, 1, 1] (n=8): agrees (exact)
transcription m4_cubic at n=6 s=1: agrees (exact)
transcription m4_cubic at n=8 s=1: agrees (exact)
transcription m4_cubic at n=10 s=2: agrees (exact)
transcription m4_cubic at n=12 s=3: agrees (exact)
transcription m4_cubic at n=14 s=1: agrees (exact)
transcription m4_cubic at n=16 s=4: agrees (exact)
transcription m5_quadratic at s=1 (n=4): agrees (exact)
transcription m5_quadratic at s=2 (n=6): agrees (exact)
transcription m5_quadratic at s=3 (n=8): agrees (exact)
transcription m5_quadratic at s=4 (n=10): agrees (exact)
transcription m5_quadratic at s=5 (n=12): agrees (exact)
"""


def test_proof_check_all_golden():
    code, out = run_cli(["proof-check", "--all", "--nmax", "40"])
    assert code == 0
    assert out == PROOF_CHECK_ALL_40


def test_proof_check_bad_instance():
    code, _ = run_cli(["proof-check", "--instance", "soup"])
    assert code == 2
    code, _ = run_cli(["proof-check", "--instance", "2,1,1,1"])
    assert code == 2  # k < s+2


@pytest.mark.parametrize("nmax", ["13", "15", "3", "2", "-4"])
def test_proof_check_all_rejects_odd_or_small_nmax(nmax, capsys):
    assert run_cli(["proof-check", "--all", "--nmax", nmax]) == (2, "")
    assert f"error: nmax must be an even integer >= 4, got {nmax}" in capsys.readouterr().err


def test_proof_check_oversize_instance_exits_2_before_building(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an oversize scenario was built")

    monkeypatch.setattr(proof_harness, "proof_graph", refuse)
    monkeypatch.setattr(proof_harness, "build_m1", refuse)
    assert run_cli(["proof-check", "--instance", "1,39999,1,1"]) == (2, "")
    assert "dense Q supports orders up to 4096, got 40002" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["extremal", "--n", "60000"], ["check", "--edges"], ["q1", "--edges"]]
)
def test_single_graph_commands_refuse_a_dense_order_before_building(
    argv, monkeypatch, tmp_path, capsys
):
    def refuse(*args):
        raise AssertionError("an oversize graph was built")

    monkeypatch.setattr(verify, "proof_graph", refuse)
    monkeypatch.setattr(slmatch.graph, "build_graph", refuse)
    if argv[-1] == "--edges":
        path, n = tmp_path / "path.edges", 50_000
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        argv = argv + [str(path)]
    assert run_cli(argv) == (2, "")
    order = 60000 if argv[0] == "extremal" else 50000
    assert capsys.readouterr().err == f"error: dense Q supports orders up to 4096, got {order}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rn", "--n", "4000000000", "--closed-form"], "imaginary residue -3.099e-06"),
        (["threshold", "--n", str(10**308)], "the roots' Fujiwara bound"),
        (["rn", "--n", str(10**308)], "the roots' Fujiwara bound"),
        (["rn", "--n", str(2 * 10**51), "--closed-form"], "the discriminant exceeds the float"),
    ],
)
def test_orders_too_large_to_compute_exit_2_with_one_error_line(argv, message, capsys):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_orders_whose_root_fits_a_float_compute():
    # r(n) is about 2n; the roots' bracket is kept in integers until it fits
    for n, r in [(10**154, "2e+154"), (10**307, "2e+307")]:
        assert run_cli(["rn", "--n", str(n)]) == (0, f"r_n {r}\n")
        code, out = run_cli(["threshold", "--n", str(n)])
        assert code == 0 and f"\nq1_threshold {r}\nr_n {r}\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--n", "5"],
        ["verify", "--random", "5", "--p", "0.5", "--count", "3"],
        ["check", "--graph6", encode_graph6(complete_graph(5))],
        ["verify", "--exhaustive", "5"],
    ],
)
def test_odd_orders_name_the_one_even_order_rule(argv, capsys):
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == "error: order must be an even integer >= 4, got 5\n"


def test_every_library_exception_is_an_input_error():
    # cli.main answers InputError with exit 2, so this is the whole exit-2 family
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    assert len(classes) == 6
    assert all(issubclass(c, errors.InputError) for c in classes)
    assert issubclass(errors.NumericalError, errors.CapacityError)


def test_unknown_subcommand_exits_2():
    assert run_cli(["frobnicate"])[0] == 2


def test_bad_graph6_exits_2():
    assert run_cli(["q1", "--graph6", "!!"])[0] == 2


def test_q1_above_the_dense_order_cap_exits_2():
    line = encode_graph6(empty_graph(MAX_DENSE_ORDER + 1))
    assert run_cli(["q1", "--graph6", line])[0] == 2


def test_missing_edge_file_exits_2(tmp_path):
    assert run_cli(["q1", "--edges", str(tmp_path / "missing.edges")])[0] == 2


def test_edge_file_above_the_graph6_order_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("1000000000000 0\n")
    assert run_cli(["q1", "--edges", str(path)]) == (2, "")
    err = capsys.readouterr().err
    assert err == "error: dense Q supports orders up to 4096, got 1000000000000\n"


@pytest.mark.parametrize("command", ["q1", "check"])
def test_edge_file_with_a_non_utf8_byte_exits_2(command, tmp_path, capsys):
    path = tmp_path / "stray.edges"
    path.write_bytes(b"3 2\n0 1\n1 \xff\n")
    assert run_cli([command, "--edges", str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: non-integer edge line '1 \xff'\n"


def _python_m_slmatch(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(slmatch.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "slmatch", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_python_m_slmatch_runs_the_cli():
    done = _python_m_slmatch("threshold", "--n", "10")
    assert (done.returncode, done.stdout) == run_cli(["threshold", "--n", "10"])
    assert _python_m_slmatch("verify", "--exhaustive", "5").returncode == 2
