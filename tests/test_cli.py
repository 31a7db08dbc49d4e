import importlib.util
import io
import json
import resource
from pathlib import Path

import numpy as np
import pytest

from colourcontract import cli, colour_partition, new_graph, parse_graph
from colourcontract.cli import run_cli
from reference_impls import contract_by_relabel, relabel_form


P4_TEXT = "4 3\n0 0 0 0\n0 2\n1 3\n2 3\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(P4_TEXT)
    return str(path)


def test_contract_stats_to_stdout(p4_file, capsys):
    assert run_cli(["contract", p4_file, "--stats", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["iterations"] == 2
    assert stats["n0"] == 4 and stats["final_n"] == 1
    assert [row["iteration"] for row in stats["per_iteration"]] == [1, 2]


def test_contract_stats_report_the_peak_rss(p4_file, capsys):
    # ru_maxrss is in KiB on Linux; the stats give the run's peak in MB,
    # read between the peaks before and after the command
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert run_cli(["contract", p4_file, "--stats", "-"]) == 0
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = json.loads(capsys.readouterr().out)
    assert 0 < before <= stats["peak_rss_mb"] <= after


def test_contract_graph_to_stdout_by_default(p4_file, capsys):
    assert run_cli(["contract", p4_file]) == 0
    out = capsys.readouterr().out
    g = parse_graph(out)
    assert g.n == 1 and g.m == 0


def test_contract_writes_both_targets(p4_file, tmp_path, capsys):
    out_path = tmp_path / "contracted.graph"
    stats_path = tmp_path / "stats.json"
    assert run_cli(["contract", p4_file, "--out", str(out_path), "--stats", str(stats_path)]) == 0
    assert capsys.readouterr().out == ""
    assert parse_graph(out_path.read_text()).n == 1
    assert json.loads(stats_path.read_text())["iterations"] == 2


def test_contract_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(P4_TEXT))
    assert run_cli(["contract", "-", "--stats", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 2


def test_contract_trace_includes_mappings(p4_file, capsys):
    assert run_cli(["contract", p4_file, "--trace"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["per_iteration"][0]["becomes"] == [0, 1, 0, 1]
    assert stats["per_iteration"][1]["becomes"] == [0, 0]


def test_contract_scratchpad_variants_match(p4_file, tmp_path, capsys):
    # the merge has no variants left to choose; its output equals set relabelling
    assert run_cli(["contract", p4_file, "--scratchpad", "epoch"]) == 2
    capsys.readouterr()
    in_path, out_path = tmp_path / "r.graph", tmp_path / "out.graph"
    assert run_cli(["gen", "random", "--n", "40", "--m", "90", "--colours", "3", "--seed", "5"]) == 0
    in_path.write_text(capsys.readouterr().out)
    assert run_cli(["contract", str(in_path), "--out", str(out_path), "--stats", "-", "--trace"]) == 0
    stats = json.loads(capsys.readouterr().out)
    g = parse_graph(in_path.read_text())
    block_of = np.arange(g.n)
    for row in stats["per_iteration"]:
        block_of = np.asarray(row["becomes"])[block_of]
    final = parse_graph(out_path.read_text())
    assert stats["iterations"] >= 1 and final.m >= 1
    assert relabel_form(final) == contract_by_relabel(g, block_of.tolist())


def test_contract_permute_seed_changes_labels_not_outcome(p4_file, capsys):
    # relabelling may change the iteration count but never the final shape
    assert run_cli(["contract", p4_file, "--permute-seed", "3", "--stats", "-"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["final_n"] == 1 and 1 <= stats["iterations"] <= 2


def test_oracle_subcommand(p4_file, capsys):
    assert run_cli(["oracle", p4_file]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.n == 1 and g.m == 0


def test_oracle_and_contract_agree(tmp_path, capsys):
    path = tmp_path / "r.graph"
    assert run_cli(["gen", "random", "--n", "30", "--m", "60", "--colours", "3", "--seed", "11"]) == 0
    path.write_text(capsys.readouterr().out)
    assert run_cli(["contract", str(path)]) == 0
    contracted = capsys.readouterr().out
    assert run_cli(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == contracted


def test_verify_ok(p4_file, capsys):
    assert run_cli(["verify", p4_file, "--seeds", "5", "9"]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out and "seed 9" in out


def test_verify_reports_mismatch(p4_file, monkeypatch, capsys):
    # the oracle claims p4 splits into its four vertices
    monkeypatch.setattr(cli, "colour_partition", lambda g: colour_partition(new_graph(g.n, [], range(g.n))))
    assert run_cli(["verify", p4_file]) == 1
    out = capsys.readouterr().out
    assert "base: MISMATCH" in out and "verify: FAILED" in out


def test_verify_relabelling_stability(tmp_path, monkeypatch, capsys):
    path = tmp_path / "two_blocks.graph"
    path.write_text("4 3\n0 0 1 1\n0 1\n1 2\n2 3\n")
    # relabelled runs number the two blocks either way round; both pull back to one partition
    assert run_cli(["verify", str(path), "--seeds", "1", "2", "3", "4", "5", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("partition stable") == 6 and "verify: OK" in out
    real = cli.permute_enumeration

    def misreported(g, seed):
        # the relabelled graph is right, its permutation is shifted by one
        h, perm = real(g, seed)
        return h, np.roll(perm, -1)

    monkeypatch.setattr(cli, "permute_enumeration", misreported)
    assert run_cli(["verify", str(path), "--seeds", "5"]) == 1
    out = capsys.readouterr().out
    assert "base: equivalent" in out
    assert "seed 5: equivalent, partition UNSTABLE" in out and "verify: FAILED" in out


def test_gen_fib_roundtrips_through_contract(tmp_path, capsys):
    assert run_cli(["gen", "fib", "--level", "5"]) == 0
    text = capsys.readouterr().out
    g = parse_graph(text)
    assert g.n == 13
    path = tmp_path / "fib5.graph"
    path.write_text(text)
    assert run_cli(["contract", str(path), "--stats", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 5


def test_gen_fib_roles_are_comments(capsys):
    assert run_cli(["gen", "fib", "--level", "3", "--roles"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# level: 3\n# roles: ")
    g = parse_graph(text)  # comments must not disturb parsing
    assert g.n == 5


def test_gen_random_deterministic(capsys):
    argv = ["gen", "random", "--n", "12", "--m", "20", "--colours", "2", "--seed", "4"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first
    g = parse_graph(first)
    assert g.n == 12 and g.m == 20


def test_gen_random_requires_one_edge_target(capsys):
    assert run_cli(["gen", "random", "--n", "5", "--m", "2", "--p", "0.5", "--colours", "1", "--seed", "0"]) == 2
    capsys.readouterr()


def test_export_dot(p4_file, capsys):
    assert run_cli(["export-dot", p4_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph") and out.count(" -- ") == 3


def test_export_dot_roles(tmp_path, capsys):
    assert run_cli(["gen", "fib", "--level", "3"]) == 0
    path = tmp_path / "fib3.graph"
    path.write_text(capsys.readouterr().out)
    assert run_cli(["export-dot", str(path), "--roles"]) == 0
    out = capsys.readouterr().out
    assert 'role="P"' in out and 'role="Q"' in out and 'role="R"' in out


def _iteration_experiment():
    path = Path(__file__).resolve().parents[1] / "scripts" / "iteration_experiment.py"
    spec = importlib.util.spec_from_file_location("iteration_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_reports_summary(tmp_path, capsys):
    # the round-count experiment lives in the script, not in a CLI subcommand
    out = tmp_path / "report.json"
    argv = ["--n", "60", "--m", "120", "--seeds", "3", "--colour-counts", "1", "3", "--out", str(out)]
    assert _iteration_experiment().main(argv) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["n"] == 60 and report["m"] == 120
    assert [c["colours"] for c in report["conditions"]] == [1, 3]
    for condition in report["conditions"]:
        assert [r["seed"] for r in condition["runs"]] == [0, 1, 2]
        summary = condition["summary"]
        assert summary["max_iterations"] <= summary["iteration_bound"] == report["iteration_bound"]
        for run in condition["runs"]:
            assert len(run["per_iteration_n"]) == run["iterations"]


def test_iteration_experiment_rejects_impossible_sizes(capsys):
    experiment = _iteration_experiment()
    for argv in (["--n", "10", "--m", "46"], ["--n", "3"], ["--n", "10", "--m", "-1"], ["--n", "10", "--colour-counts", "0"]):
        with pytest.raises(SystemExit) as exc:
            experiment.main(argv + ["--seeds", "1"])
        assert exc.value.code == 2, argv
        assert "error:" in capsys.readouterr().err
    assert experiment.main(["--n", "10", "--m", "45", "--seeds", "1"]) == 0
    capsys.readouterr()


def test_bench_subcommand_is_gone(capsys):
    assert run_cli(["bench", "--n", "60", "--m", "120", "--colours", "1", "--seeds", "3"]) == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_input_is_read_as_bytes(p4_file, monkeypatch):
    assert cli._read_text(p4_file) == P4_TEXT.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(P4_TEXT.encode())))
    assert cli._read_text("-") == P4_TEXT.encode()


def _contract_bytes(tmp_path, monkeypatch, capsys, raw: bytes) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of ``contract`` on raw as a file and on stdin."""
    path = tmp_path / "raw.graph"
    path.write_bytes(raw)
    results = [(run_cli(["contract", str(path)]), *capsys.readouterr())]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    results.append((run_cli(["contract", "-"]), *capsys.readouterr()))
    return results


def test_carriage_returns_read_as_text_mode_read_them(tmp_path, monkeypatch, capsys):
    # the file was read in text mode, which turned \r\n and a lone \r into
    # \n; its bytes must give the same graph, or fail on the same line
    cases = [
        P4_TEXT,
        "# a path\n4 3\n0 0 0 0\n\n0 2\n1 3\n2 3",
        "+4 3\n0 0 0 0\n0 2\n1 3\n2 3\n",
        "2 1\n0 0\n0 5\n",
        "3 2\n0 0 0\n# c\n0 1 2\n1 2\n",
    ]
    for text in cases:
        for brk in ("\r\n", "\r"):
            expected = _contract_bytes(tmp_path, monkeypatch, capsys, text.encode())[0]
            got = _contract_bytes(tmp_path, monkeypatch, capsys, text.replace("\n", brk).encode())
            assert got == [expected, expected], (text, brk)
    assert _contract_bytes(tmp_path, monkeypatch, capsys, P4_TEXT.replace("\n", "\r").encode())[0][:2] == (0, "1 0\n0\n")
    assert _contract_bytes(tmp_path, monkeypatch, capsys, b"2 1\r0 0\r0 5\r")[0][2] == "error: line 3: edge endpoint out of range: (0, 5)\n"


def test_input_that_is_not_utf8_is_a_failure(tmp_path, monkeypatch, capsys):
    # the bytes of a Latin-1 file are decoded strictly, as the file was read
    raw = ("# caf\xe9\n" + P4_TEXT).encode("latin-1")
    for code, out, err in _contract_bytes(tmp_path, monkeypatch, capsys, raw):
        assert (code, out) == (1, "") and err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
    # Latin-1 text that is all ASCII is the same text
    assert _contract_bytes(tmp_path, monkeypatch, capsys, P4_TEXT.encode("latin-1"))[0] == (0, "1 0\n0\n", "")


def test_missing_file_is_failure_not_usage_error(capsys):
    assert run_cli(["contract", "/nonexistent/xyz.graph"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_graph_is_failure(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 0\n0 5\n")
    assert run_cli(["contract", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_hostile_graphs_are_failures_not_tracebacks(tmp_path, capsys):
    cases = {
        "huge-m.graph": ("1 100000000000000\n0\n", "line 3"),
        "huge-colour.graph": ("2 1\n0 99999999999999999999999\n0 1\n", "line 2"),
        "huge-n.graph": ("4294967296 0\n", "line 1"),
    }
    for name, (text, where) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert run_cli(["contract", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and where in err


def test_negative_seeds_are_failures(monkeypatch, capsys, tmp_path):
    for argv in (["contract", "-", "--permute-seed", "-5"], ["verify", "-", "--seeds", "-1"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(P4_TEXT))
        assert run_cli(argv) == 1, argv
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
    # the seeds are refused before the input is read: no result is printed
    # for the good seed, and no output file is created
    path = tmp_path / "p4.graph"
    path.write_text(P4_TEXT)
    out = tmp_path / "out.graph"
    for argv in (["verify", str(path), "--seeds", "1", "-1"], ["contract", str(path), "--out", str(out), "--permute-seed", "-5"]):
        assert run_cli(argv) == 1, argv
        assert capsys.readouterr() == ("", "error: seed must be non-negative\n"), argv
    assert not out.exists()


def test_usage_errors_exit_two(capsys):
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["contract"]) == 2
    assert run_cli(["gen", "fib"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()
