"""Command-line front end.

Subcommands: exact, solve, pipeline, verify, convert-dimacs, gaussian-test.
Exit codes: 0 success, 1 verification or rounding failure, 2 usage/I-O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .concave import STARTS, solve_relaxation
from .embeddings import Embedding, embedding_from_gram
from .graphs import BRUTE_FORCE_CAP, dump_graph, exact_balanced_separator, load_dimacs, load_graph
from .records import batch_rows_to_csv, experiment_record, record_to_json
from .rounding import PipelineOptions, RoundingError, gaussian_projection_test, pipeline
from .solver_core import NonconvergedError
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _read_graph(path):
    return load_graph(Path(path).read_text())


def _emit(text, out_path):
    """Write text to out_path, or to stdout when there is none."""
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_exact(args):
    g = _read_graph(args.graph)
    exact = exact_balanced_separator(g, args.c)
    if exact is None:
        raise ValueError(f"n={g.n} exceeds the exact oracle's cap {BRUTE_FORCE_CAP}")
    cut, value = exact
    record = experiment_record(
        "exact",
        {"graph": args.graph, "c": args.c},
        {"n": g.n, "m": g.m, "value": value, "cut_members": list(cut.sorted_members())},
    )
    _emit(record_to_json(record), args.out)
    return EXIT_OK


def _solve_config(graph, args):
    """Record config of a solve: the inputs the solver reads, with `starts`
    only below p = 2, where the multistart uses it."""
    config = {"graph": graph, "p": args.p, "c": args.c, "seed": args.seed}
    if args.p < 2.0:
        config["starts"] = args.starts
    return config


def _solve(g, args):
    """The one solve behind `solve` and behind `pipeline` without
    --embedding: (GramForm, SolveReport, Embedding)."""
    x, report = solve_relaxation(g, args.c, args.p, seed=args.seed, starts=args.starts)
    return x, report, embedding_from_gram(x)


def cmd_solve(args):
    g = _read_graph(args.graph)
    x, report, emb = _solve(g, args)
    if args.out_matrix:
        Path(args.out_matrix).write_text(x.to_json() + "\n")
    if args.out_embedding:
        Path(args.out_embedding).write_text(emb.to_json() + "\n")
    record = experiment_record(
        "solve",
        _solve_config(args.graph, args),
        {
            "n": g.n,
            "m": g.m,
            "relaxation_value": report.value,
            "iterations": report.iterations,
            "converged": report.converged,
            **asdict(report.residuals),
        },
    )
    _emit(record_to_json(record), args.out)
    return EXIT_OK


def _pipeline_config(graph, args):
    """Record config of a pipeline run, the same keys in single-graph and
    batch mode; `embedding` and `relaxation_value` say whether a stored
    solve replaced the solver."""
    return {
        **_solve_config(graph, args),
        "sigma": args.sigma,
        "retries": args.retries,
        "delta": args.delta,
        "embedding": args.embedding,
        "relaxation_value": args.relaxation_value,
    }


def _run_single_pipeline(g, name, args):
    """Round the stored embedding, or solve first when there is none."""
    # a bad rounding flag fails before any work
    opts = PipelineOptions(
        delta=args.delta, sigma=args.sigma, retries=args.retries, seed=args.seed
    )
    value = args.relaxation_value
    if args.embedding:
        emb = Embedding.from_json(Path(args.embedding).read_text())
    elif value is not None:
        raise ValueError("a relaxation value needs the embedding it was solved for")
    else:
        _, solved, emb = _solve(g, args)
        value = solved.value
    report = pipeline(g, args.c, args.p, opts, embedding=emb, relaxation_value=value)
    results = asdict(report)
    results["graph"] = name
    results["n"] = g.n
    results["m"] = g.m
    return report, results


def cmd_pipeline(args):
    if args.batch:
        paths = sorted(Path(args.batch).glob("*.txt"))
        if not paths:
            raise FileNotFoundError(f"no *.txt graphs under {args.batch}")
        rows = []
        configs = []
        for idx, path in enumerate(paths):
            sub_args = argparse.Namespace(**vars(args))
            sub_args.seed = args.seed + idx
            _, results = _run_single_pipeline(_read_graph(path), path.name, sub_args)
            rows.append(results)
            configs.append(_pipeline_config(path.name, sub_args))
        if args.records_dir:
            rec_dir = Path(args.records_dir)
            rec_dir.mkdir(parents=True, exist_ok=True)
            for row, config in zip(rows, configs):
                record = experiment_record("pipeline", config, row)
                name = Path(row["graph"]).stem
                (rec_dir / f"{name}.record.json").write_text(record_to_json(record))
        _emit(batch_rows_to_csv(rows), args.out_csv)
        failures = [r for r in rows if not r["succeeded"]]
        return EXIT_FAILURE if failures else EXIT_OK

    g = _read_graph(args.graph)
    report, results = _run_single_pipeline(g, Path(args.graph).name, args)
    record = experiment_record("pipeline", _pipeline_config(args.graph, args), results)
    _emit(record_to_json(record), args.out)
    return EXIT_OK if report.succeeded else EXIT_FAILURE


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    all_ok = True
    for suite in results:
        for line in suite.lines:
            print(f"[{suite.name}] {line}")
        print(f"suite {suite.name}: {'PASS' if suite.passed else 'FAIL'}")
        all_ok = all_ok and suite.passed
    return EXIT_OK if all_ok else EXIT_FAILURE


def cmd_convert_dimacs(args):
    _emit(dump_graph(load_dimacs(Path(args.input).read_text())), args.out)
    return EXIT_OK


def cmd_gaussian_test(args):
    result = gaussian_projection_test(args.d, args.x, args.samples, args.seed)
    record = experiment_record(
        "gaussian-test",
        {"d": args.d, "x": args.x, "samples": args.samples, "seed": args.seed},
        {
            "empirical_low": result.empirical_low,
            "empirical_high": result.empirical_high,
            "bound_low": result.bound_low,
            "bound_high": result.bound_high,
        },
    )
    _emit(record_to_json(record), args.out)
    return EXIT_OK


def seed_value(text):
    """argparse type of every --seed: numpy's generators need a seed >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="balanced-separator relaxation lab: exact oracle, solvers, rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(sp):
        sp.add_argument("--seed", type=seed_value, default=0)

    sp = sub.add_parser("exact", help="brute-force minimum c-balanced cut")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("solve", help="solve the exponent-p relaxation")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--starts", type=int, default=STARTS)
    sp.add_argument("--out-matrix")
    sp.add_argument("--out-embedding")
    sp.add_argument("--out")
    add_seed(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("pipeline", help="solve, round, and report a cut")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--batch", help="directory of *.txt graphs; emits aggregate CSV")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--sigma", type=float, default=PipelineOptions.sigma)
    sp.add_argument("--retries", type=int, default=PipelineOptions.retries)
    sp.add_argument("--starts", type=int, default=STARTS)
    sp.add_argument("--embedding", help="embedding JSON to round (skips the solve)")
    sp.add_argument("--relaxation-value", type=float)
    sp.add_argument("--out")
    sp.add_argument("--out-csv")
    sp.add_argument("--records-dir", help="batch mode: write one record JSON per graph")
    add_seed(sp)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("verify", help="run property suites")
    sp.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)
    add_seed(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("convert-dimacs", help="DIMACS to edge-list conversion")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_convert_dimacs)

    sp = sub.add_parser("gaussian-test", help="projection-lemma Monte Carlo")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--out")
    add_seed(sp)
    sp.set_defaults(func=cmd_gaussian_test)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "pipeline" and args.batch:
        # batch mode solves every graph; one embedding or value cannot stand
        # for all of them
        for flag, value in (("--embedding", args.embedding),
                            ("--relaxation-value", args.relaxation_value)):
            if value is not None:
                parser.error(f"{flag} cannot be used with --batch")
    try:
        return args.func(args)
    except (ValueError, OSError, RoundingError) as exc:  # bad flags, files or embeddings
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonconvergedError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
