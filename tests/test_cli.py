import json

import numpy as np
import pytest

from sepkit import concave
from sepkit.cli import main
from sepkit.corpus import cycle_graph, petersen_graph
from sepkit.embeddings import Embedding, cut_to_embedding
from sepkit.graphs import BRUTE_FORCE_CAP, Cut, dump_graph

C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return path


def strip_timestamp(record):
    """record without its created_at, the one field two equal runs differ in."""
    return {key: value for key, value in record.items() if key != "created_at"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_exact_record(c4_file, capsys):
    code, record = run_json(capsys, ["exact", "--graph", str(c4_file), "--c", "0.25"])
    assert code == 0
    assert record["results"]["value"] == 2
    assert record["results"]["cut_members"] == [0, 1]
    assert record["schema_version"] == "1"


def test_exact_missing_file_exit_2(tmp_path, capsys):
    code = main(["exact", "--graph", str(tmp_path / "nope.txt"), "--c", "0.25"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_exact_cap_exit_2(tmp_path, capsys):
    for n in (BRUTE_FORCE_CAP + 1, 25):
        big = tmp_path / "big.txt"
        big.write_text(f"{n} 1\n0 1\n")
        code = main(["exact", "--graph", str(big), "--c", "0.25"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: n={n} exceeds the exact oracle's cap {BRUTE_FORCE_CAP}\n"
        assert captured.out == ""
    # above the cap the instance is still checked first
    assert main(["exact", "--graph", str(big), "--c", "0"]) == 2
    assert capsys.readouterr().err == "error: c must lie in (0, 1/2], got 0.0\n"


def test_solve_rejects_out_of_range_p(c4_file, capsys):
    code = main(["solve", "--graph", str(c4_file), "--p", "2.5", "--c", "0.25"])
    assert code == 2


def test_solve_p2_writes_matrix(c4_file, tmp_path, capsys):
    out_matrix = tmp_path / "gram.json"
    code, record = run_json(
        capsys,
        [
            "solve", "--graph", str(c4_file), "--p", "2", "--c", "0.25",
            "--out-matrix", str(out_matrix), "--seed", "1",
        ],
    )
    assert code == 0
    assert record["results"]["relaxation_value"] <= 2.0 + 1e-5
    assert record["results"]["converged"] is True
    doc = json.loads(out_matrix.read_text())
    assert doc["n"] == 4
    assert len(doc["matrix"]) == 4


def test_solve_p1_writes_gram_matrix(c4_file, tmp_path, capsys):
    # --out-matrix holds X = 1 - Z at every exponent
    out_matrix = tmp_path / "gram.json"
    code, record = run_json(
        capsys,
        [
            "solve", "--graph", str(c4_file), "--p", "1", "--c", "0.25",
            "--starts", "2", "--out-matrix", str(out_matrix),
        ],
    )
    assert code == 0
    assert "matrix_kind" not in record["results"]
    assert record["results"]["converged"] is True
    assert record["results"]["relaxation_value"] <= 2.0 + 1e-5
    x = np.array(json.loads(out_matrix.read_text())["matrix"])
    assert np.array_equal(np.diag(x), np.ones(4))


def test_solve_flags_and_config_are_the_solver_inputs(c4_file, capsys):
    base = ["solve", "--graph", str(c4_file), "--p", "1", "--c", "0.25"]
    for flag, value in (("--tol", "1e-6"), ("--max-iter", "100"),
                        ("--warm-start", "cut"), ("--inner-tol", "1e-5"),
                        ("--max-outer", "30")):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value])
        assert exc.value.code == 2
    capsys.readouterr()
    code, record = run_json(capsys, base + ["--starts", "2", "--seed", "3"])
    assert code == 0
    assert record["config"] == {
        "graph": str(c4_file), "p": 1.0, "c": 0.25, "seed": 3, "starts": 2,
    }


def test_solve_default_starts_is_the_pipeline_default(c4_file, capsys):
    # `solve --p 1` and `pipeline --p 1` make the same solve call, so the
    # pipeline rounds the relaxation that `solve` reports
    code, record = run_json(
        capsys, ["solve", "--graph", str(c4_file), "--p", "1", "--c", "0.25"]
    )
    assert code == 0
    assert record["config"]["starts"] == 4
    code, piped = run_json(
        capsys, ["pipeline", "--graph", str(c4_file), "--p", "1", "--c", "0.25"]
    )
    assert code == 0
    assert piped["config"]["starts"] == 4
    assert piped["results"]["relaxation_value"] == record["results"]["relaxation_value"]


def test_solve_nonconvergence_exit_1(tmp_path, capsys, monkeypatch):
    # one linearization step does not settle C6 at p = 1 (on C4 it does)
    c6 = tmp_path / "c6.txt"
    c6.write_text(dump_graph(cycle_graph(6)))
    monkeypatch.setattr(concave, "MAX_OUTER", 1)
    code = main(["solve", "--graph", str(c6), "--p", "1", "--c", "0.25"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "solver failed to converge: no linearization fixed point within MAX_OUTER=1\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--retries", "-3"],
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--retries", "0"],
        ["solve", "--graph", "C4", "--p", "2", "--c", "0.25", "--starts", "0"],
        ["gaussian-test", "--d", "0", "--x", "0.1"],
        # a solve would replace the value, so it cannot come without --embedding
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--relaxation-value", "99"],
        # the oracle follows the same c rule as every solver
        ["exact", "--graph", "C4", "--c", "0"],
        ["exact", "--graph", "C4", "--c", "inf"],
        ["solve", "--graph", "C4", "--p", "2", "--c", "nan"],
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--delta", "0"],
        # an infinite delta or sigma would fail every attempt and write
        # Infinity, which is not JSON
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--delta", "inf"],
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--sigma", "inf"],
        # a stored relaxation value must be a finite, nonnegative number
        ["pipeline", "--graph", "C4", "--p", "1", "--c", "0.25", "--embedding", "EMB",
         "--relaxation-value", "nan"],
        ["pipeline", "--graph", "C4", "--p", "1", "--c", "0.25", "--embedding", "EMB",
         "--relaxation-value", "-5"],
        ["pipeline", "--graph", "C4", "--p", "1", "--c", "0.25", "--embedding", "EMB",
         "--relaxation-value", "inf"],
        ["gaussian-test", "--d", "4", "--x", "nan", "--samples", "10000"],
        # a NaN coordinate would fail every attempt and write a NaN value
        ["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25", "--embedding", "EMB_NAN"],
        # a batch directory without one *.txt graph
        ["pipeline", "--batch", "EMPTY", "--p", "2", "--c", "0.25"],
        # the regular pentagon breaks the squared-distance triangle, so the
        # threshold region of this attempt takes in a T-side vertex
        ["pipeline", "--graph", "C5", "--p", "2", "--c", "0.25", "--embedding", "PENTAGON",
         "--delta", "3", "--seed", "15"],
    ],
    ids=["pipeline-retries-3", "pipeline-retries0", "solve-p2-starts0", "gaussian-d0",
         "pipeline-value-without-embedding", "exact-c0", "exact-cinf", "solve-cnan",
         "pipeline-delta0", "pipeline-delta-inf", "pipeline-sigma-inf", "pipeline-value-nan",
         "pipeline-value-negative", "pipeline-value-inf", "gaussian-xnan",
         "pipeline-embedding-nan", "pipeline-batch-empty", "pipeline-embedding-pentagon"],
)
def test_out_of_range_inputs_exit_2(c4_file, capsys, argv):
    emb = cut_to_embedding(cycle_graph(4), Cut({0, 1}))
    emb_path = c4_file.parent / "emb.json"
    emb_path.write_text(emb.to_json())
    vectors = emb.vectors.copy()
    vectors[2, 0] = np.nan
    nan_path = c4_file.parent / "emb_nan.json"
    nan_path.write_text(Embedding(vectors).to_json())
    empty = c4_file.parent / "empty"
    empty.mkdir()
    (empty / "notes.md").write_text(C4_TEXT)
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    pentagon = c4_file.parent / "pentagon.json"
    pentagon.write_text(Embedding(np.column_stack([np.cos(angles), np.sin(angles)])).to_json())
    c5 = c4_file.parent / "c5.txt"
    c5.write_text(dump_graph(cycle_graph(5)))
    paths = {"C4": str(c4_file), "EMB": str(emb_path), "EMB_NAN": str(nan_path),
             "EMPTY": str(empty), "C5": str(c5), "PENTAGON": str(pentagon)}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "p, c, message",
    [("2", "0", "c must lie in (0, 1/2], got 0.0"),
     ("2", "-0.25", "c must lie in (0, 1/2], got -0.25"),
     ("2.5", "0.25", "p must lie in (0, 2], got 2.5"),
     ("2", "0.6", "c must lie in (0, 1/2], got 0.6"),
     ("2", "inf", "c must lie in (0, 1/2], got inf"),
     ("2", "nan", "c must lie in (0, 1/2], got nan"),
     ("2", "0.5", "no size s with cn < s < (1-c)n for c=0.5, n=4")],
    ids=["c0", "c-0.25", "p2.5", "c0.6", "cinf", "cnan", "c0.5-infeasible"],
)
def test_pipeline_bad_instance_names_the_input(c4_file, capsys, p, c, message):
    # the error names what the caller set (c, not the derived c_prime)
    code = main(["pipeline", "--graph", str(c4_file), "--p", p, "--c", c])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_pipeline_rounding_flags_are_delta_and_sigma(c4_file, capsys):
    # c' is always c/4 and delta_target has no scale: neither is a flag
    base = ["pipeline", "--graph", str(c4_file), "--p", "2", "--c", "0.25"]
    for flag, value in (("--b-const", "2"), ("--c-prime", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag, value])
        assert exc.value.code == 2


def test_pipeline_batch_config_matches_single_graph(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    graph = batch / "c4.txt"
    graph.write_text(C4_TEXT)
    opts = ["--p", "1", "--c", "0.25", "--starts", "2", "--seed", "5",
            "--sigma", "0.5", "--retries", "3"]
    _, single = run_json(capsys, ["pipeline", "--graph", str(graph)] + opts)
    rec_dir = tmp_path / "records"
    main(["pipeline", "--batch", str(batch), "--records-dir", str(rec_dir)] + opts)
    batched = json.loads((rec_dir / "c4.record.json").read_text())
    assert batched["config"] == {**single["config"], "graph": "c4.txt"}
    assert single["config"] == {
        "graph": str(graph), "p": 1.0, "c": 0.25, "seed": 5, "starts": 2,
        "sigma": 0.5, "retries": 3, "delta": None,
        "embedding": None, "relaxation_value": None,
    }


def test_pipeline_record_and_determinism(c4_file, capsys):
    argv = ["pipeline", "--graph", str(c4_file), "--p", "2", "--c", "0.25", "--seed", "9"]
    code1, rec1 = run_json(capsys, argv)
    code2, rec2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    assert strip_timestamp(rec1) == strip_timestamp(rec2)
    assert rec1["results"]["succeeded"]
    assert rec1["results"]["cut_size"] >= 2


def test_pipeline_needs_graph_or_batch(c4_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--p", "1", "--c", "0.25"])
    assert exc.value.code == 2
    capsys.readouterr()
    # one of them, never both: batch mode would drop --graph unread
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--graph", str(c4_file), "--batch", str(tmp_path),
              "--p", "1", "--c", "0.25"])
    assert exc.value.code == 2
    assert "argument --batch: not allowed with argument --graph" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["pipeline", "--graph", "C4", "--p", "2", "--c", "0.25"],
     ["verify", "--suite", "roundtrip"]],
    ids=["pipeline", "verify"],
)
def test_negative_seed_is_a_usage_error(c4_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(c4_file) if a == "C4" else a for a in argv] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_pipeline_rounding_failure_exit_1(c4_file, capsys):
    code, record = run_json(
        capsys,
        [
            "pipeline", "--graph", str(c4_file), "--p", "2", "--c", "0.25",
            "--sigma", "100", "--retries", "2",
        ],
    )
    assert code == 1
    assert record["results"]["succeeded"] is False


def test_pipeline_batch_csv_and_records(tmp_path, capsys):
    (tmp_path / "a.txt").write_text(C4_TEXT)
    (tmp_path / "b.txt").write_text("2 1\n0 1\n")
    out_csv = tmp_path / "agg.csv"
    rec_dir = tmp_path / "records"
    code = main(
        [
            "pipeline", "--batch", str(tmp_path), "--p", "2", "--c", "0.25",
            "--out-csv", str(out_csv),
            "--records-dir", str(rec_dir),
        ]
    )
    assert code in (0, 1)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("graph,n,m,p,c,seed")
    assert len(lines) == 3
    recs = sorted(p.name for p in rec_dir.glob("*.record.json"))
    assert recs == ["a.record.json", "b.record.json"]
    doc = json.loads((rec_dir / "a.record.json").read_text())
    assert doc["results"]["n"] == 4


@pytest.mark.parametrize(
    "flag, value",
    [("--embedding", "emb.json"), ("--relaxation-value", "1.5")],
)
def test_pipeline_batch_rejects_single_graph_inputs(tmp_path, capsys, flag, value):
    # batch mode solves each graph, so it would drop either flag unread
    (tmp_path / "a.txt").write_text(C4_TEXT)
    (tmp_path / "emb.json").write_text(
        json.dumps({"n": 4, "d": 1, "vectors": [[1.0], [1.0], [-1.0], [-1.0]]})
    )
    if flag == "--embedding":
        value = str(tmp_path / value)
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--batch", str(tmp_path), "--p", "2", "--c", "0.25",
              flag, value])
    assert exc.value.code == 2
    assert f"{flag} cannot be used with --batch" in capsys.readouterr().err


def test_pipeline_embedding_passthrough(c4_file, tmp_path, capsys):
    # round a hand-built cut embedding without solving
    emb = tmp_path / "emb.json"
    emb.write_text(
        json.dumps({"n": 4, "d": 1, "vectors": [[1.0], [1.0], [-1.0], [-1.0]]})
    )
    code, record = run_json(
        capsys,
        [
            "pipeline", "--graph", str(c4_file), "--p", "1", "--c", "0.25",
            "--embedding", str(emb), "--seed", "4",
        ],
    )
    assert code == 0
    assert record["results"]["relaxation_value"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "graph, other", [(petersen_graph(), cycle_graph(4)), (cycle_graph(4), petersen_graph())],
    ids=["petersen-with-c4-embedding", "c4-with-petersen-embedding"],
)
def test_pipeline_rejects_embedding_of_another_size(tmp_path, capsys, graph, other):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(dump_graph(graph))
    emb = tmp_path / "emb.json"
    emb.write_text(cut_to_embedding(other, Cut({0, 1})).to_json())
    code = main(["pipeline", "--graph", str(graph_file), "--p", "2", "--c", "0.25",
                 "--embedding", str(emb)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_convert_dimacs(tmp_path, capsys):
    src = tmp_path / "g.dimacs"
    src.write_text("c hello\np edge 3 2\ne 1 2\ne 2 3\n")
    code = main(["convert-dimacs", "--in", str(src)])
    assert code == 0
    assert capsys.readouterr().out == "3 2\n0 1\n1 2\n"


def test_convert_dimacs_out_writes_what_it_prints(tmp_path, capsys):
    src = tmp_path / "g.dimacs"
    src.write_text("c hello\np edge 3 2\ne 1 2\ne 2 3\n")
    assert main(["convert-dimacs", "--in", str(src)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "g.txt"
    assert main(["convert-dimacs", "--in", str(src), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_convert_dimacs_rejects_garbage(tmp_path, capsys):
    src = tmp_path / "g.dimacs"
    for text, message in [("p edge 3 1\ne 1 9\n", "line 2: vertex id out of range"),
                          ("p edge x 3\n", "line 1: 'p edge n m' needs integers"),
                          ("c m\np edge 3 y\n", "line 2: 'p edge n m' needs integers"),
                          ("p edge 3 1\ne 1 x\n", "line 2: edge endpoints must be integers"),
                          ("p edge 3 1\ne 1.5 2\n", "line 2: edge endpoints must be integers")]:
        src.write_text(text)
        assert main(["convert-dimacs", "--in", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_gaussian_test_record(capsys):
    code, record = run_json(
        capsys,
        ["gaussian-test", "--d", "25", "--x", "0.1", "--samples", "20000", "--seed", "3"],
    )
    assert code == 0
    assert record["results"]["empirical_low"] <= record["results"]["bound_low"]
    assert record["config"] == {"d": 25, "x": 0.1, "samples": 20000, "seed": 3}
    with pytest.raises(SystemExit) as exc:
        main(["gaussian-test", "--d", "25", "--x", "0.1", "--l", "2"])
    assert exc.value.code == 2


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nothing"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_verify_roundtrip_suite(capsys):
    code = main(["verify", "--suite", "roundtrip", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite roundtrip: PASS" in out


def test_verify_soundness_suite(capsys):
    code = main(["verify", "--suite", "soundness"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite soundness: PASS" in out


def test_seed_env_default(c4_file, capsys, monkeypatch):
    # the default seed is 0; no environment variable changes it
    monkeypatch.setenv("SEPKIT_SEED", "abc")
    code, record = run_json(
        capsys, ["pipeline", "--graph", str(c4_file), "--p", "2", "--c", "0.25"]
    )
    assert code == 0
    assert record["config"]["seed"] == 0


def test_solve_then_round_artifact_flow(c4_file, tmp_path, capsys):
    emb_path = tmp_path / "emb.json"
    code, solve_rec = run_json(
        capsys,
        [
            "solve", "--graph", str(c4_file), "--p", "2", "--c", "0.25",
            "--out-embedding", str(emb_path), "--seed", "2",
        ],
    )
    assert code == 0
    code, rec = run_json(
        capsys,
        [
            "pipeline", "--graph", str(c4_file), "--p", "2", "--c", "0.25",
            "--embedding", str(emb_path),
            "--relaxation-value", str(solve_rec["results"]["relaxation_value"]),
            "--seed", "2",
        ],
    )
    assert code == 0
    assert rec["results"]["succeeded"]


def test_pipeline_out_writes_the_record_it_prints(c4_file, tmp_path, capsys):
    # the round-cli form: a stored embedding and value, the record to --out
    emb = tmp_path / "emb.json"
    emb.write_text(cut_to_embedding(cycle_graph(4), Cut({0, 1})).to_json())
    argv = ["pipeline", "--graph", str(c4_file), "--p", "1.0", "--c", "0.25",
            "--embedding", str(emb), "--relaxation-value", "2.0", "--seed", "5"]
    code, printed = run_json(capsys, argv)
    assert code == 0
    out = tmp_path / "rec.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    written = json.loads(out.read_text())
    assert strip_timestamp(written) == strip_timestamp(printed)


def test_solve_then_round_two_triangles_at_p2(tmp_path, capsys):
    # Z is 0 on every edge, so <C, Z> can come out ulps below 0; the value
    # `solve` records must be one that `pipeline` accepts back
    graph = tmp_path / "triangles.txt"
    graph.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    emb_path = tmp_path / "emb.json"
    base = ["--graph", str(graph), "--p", "2", "--c", "0.25"]
    code, solve_rec = run_json(
        capsys, ["solve", *base, "--out-embedding", str(emb_path)]
    )
    assert code == 0
    value = solve_rec["results"]["relaxation_value"]
    assert value >= 0.0
    code, rec = run_json(
        capsys,
        ["pipeline", *base, "--embedding", str(emb_path), f"--relaxation-value={value!r}"],
    )
    assert code == 0
    assert rec["results"]["relaxation_value"] == value
    assert rec["results"]["succeeded"]
    assert rec["results"]["cut_size"] == rec["results"]["exact_value"] == 0
