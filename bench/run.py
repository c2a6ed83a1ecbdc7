#!/usr/bin/env python3
"""sepkit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload concave-corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; sepkit is imported from ./src.  BLAS and OpenMP
are pinned to one thread before numpy loads.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
Run and trace files go to bench/out/.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
C = 0.25
SETUP_REPS = 3  # build + warm-up repetitions; setup_s takes their median

if not (ROOT / "src" / "sepkit" / "__init__.py").is_file():
    sys.exit(f"error: no sepkit sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sepkit.cli as cli  # noqa: E402
import sepkit.concave as concave  # noqa: E402
import sepkit.sdp as sdp  # noqa: E402
from sepkit.concave import ConcaveOptions  # noqa: E402
from sepkit.corpus import acceptance_corpus, cycle_graph, gnp_graph  # noqa: E402
from sepkit.embeddings import GramForm, embedding_from_gram  # noqa: E402
from sepkit.graphs import dump_graph  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

T_IMPORTED = perf_counter()


class ConcaveCorpus:
    """solve_concave at three exponents over a slice of the acceptance corpus."""

    # (graph, exponents); n = 6, 6, 8, 10.  petersen10 at p = 1.5 alone takes
    # about as long as the other eleven solves together, so it is left out.
    SLICE = (("K33", (0.5, 1.0, 1.5)), ("gnp6_seed6", (0.5, 1.0, 1.5)),
             ("gnp8_seed1", (0.5, 1.0, 1.5)), ("petersen10", (0.5, 1.0)))

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self):
        pass

    def build(self):
        corpus = dict(acceptance_corpus())
        items = [(name, corpus[name], p) for name, ps in self.SLICE for p in ps]
        order = np.random.default_rng(self.seed).permutation(len(items))
        self.items = [items[k] for k in order]
        self.warm = (cycle_graph(4), 1.0)

    def _solve(self, g, p):
        z, rep = concave.solve_concave(g, C, p, ConcaveOptions(starts=4, seed=0))
        return 1.0 - z.matrix, rep.value

    def warm_up(self):
        self._solve(*self.warm)

    def label(self, k):
        name, _, p = self.items[k]
        return f"{name}@p={p}"

    def run(self, k):
        _, g, p = self.items[k]
        x, value = self._solve(g, p)
        return True, value, x

    def check(self, outs):
        errors = []
        for k, (_, value, x) in enumerate(outs):
            _, g, p = self.items[k]
            alpha = checks.upper_bound(g.n, g.edges, C)
            errors += [f"{self.label(k)}: {e}" for e in
                       checks.solve_errors(g.n, g.edges, C, p, x, value, alpha)]
        return errors

    def self_test_input(self, outs):
        _, g, p = self.items[0]
        _, value, x = outs[0]
        return (g, p, x, value), None


class SdpScale(ConcaveCorpus):
    """solve_sdp, default options, on sparse G(n, 4/n) at desk-scale sizes."""

    SIZES = (24, 32, 64)  # 20 < n <= SDP_N_CAP
    GRAPH_SEED = 0

    def build(self):
        items = [(f"gnp{n}_4/n", gnp_graph(n, 4.0 / n, self.GRAPH_SEED), 2.0)
                 for n in self.SIZES]
        order = np.random.default_rng(self.seed).permutation(len(items))
        self.items = [items[k] for k in order]
        self.warm = (gnp_graph(21, 4.0 / 21, self.GRAPH_SEED), 2.0)

    def _solve(self, g, p):
        x, rep = sdp.solve_sdp(g, C)
        return x.matrix, rep.value


class RoundCli:
    """In-process `sepkit pipeline` calls that round embeddings solved in set-up."""

    P_LOW = 1.0
    EXTRA = ((16, 0), (16, 1), (18, 0), (18, 1), (20, 0), (20, 1))  # G(n, 0.3, seed)
    # (graph, p) whose set-find succeeds on only some rounding seeds; a run
    # must fail the same share of its items whatever the seed (see README)
    FLAKY = {("gnp6_seed0", 2.0), ("gnp6_seed0", 1.0), ("gnp6_seed6", 2.0),
             ("gnp6_seed6", 1.0), ("gnp6_seed3", 2.0), ("gnp10_seed5", 2.0),
             ("gnp18_p03_seed1", 2.0), ("gnp20_p03_seed0", 2.0)}
    # rounding seeds per embedding: six at p = 1, two at p = 2.  Half the
    # (graph, p) pairs halt today; an even weighting would put the median
    # call exactly on the edge between the fast successes and the slower
    # 64-attempt failures, where it jumps from run to run
    SEEDS = {2.0: 2, 1.0: 6}
    RETRIES = 64  # the CLI default

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def prepare(self):
        """Solve every embedding once (solver seed 0)."""
        jobs = [(name, g, p) for name, g in acceptance_corpus() for p in (2.0, self.P_LOW)]
        jobs += [(f"gnp{n}_p03_seed{s}", gnp_graph(n, 0.3, s), 2.0) for n, s in self.EXTRA]
        self.solved = []
        for name, g, p in jobs:
            if (name, p) in self.FLAKY:
                continue
            if p == 2.0:
                x, rep = sdp.solve_sdp(g, C)
                x = x.matrix
            else:
                z, rep = concave.solve_concave(g, C, p, ConcaveOptions(starts=4, seed=0))
                x = 1.0 - z.matrix
            self.solved.append((name, g, p, x, rep.value))

    def build(self):
        rng = np.random.default_rng(self.seed)
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, max(self.SEEDS.values()))]
        self.items = []
        for name, g, p, x, value in self.solved:
            gpath = self.workdir / f"{name}.txt"
            epath = self.workdir / f"{name}_p{p}.json"
            gpath.write_text(dump_graph(g))
            epath.write_text(embedding_from_gram(GramForm(x)).to_json())
            for s in seeds[:self.SEEDS[p]]:
                out = self.workdir / f"{name}_p{p}_s{s}.record.json"
                argv = ["pipeline", "--graph", str(gpath), "--p", repr(p), "--c", repr(C),
                        "--embedding", str(epath), "--relaxation-value", repr(value),
                        "--seed", str(s), "--out", str(out)]
                self.items.append((name, g, p, value, s, out, argv))
        rng.shuffle(self.items)
        first = self.items[0][6]
        self.warm = first[:-1] + [str(self.workdir / "warm.record.json")]

    def warm_up(self):
        cli.main(self.warm)

    def label(self, k):
        name, _, p, _, s, _, _ = self.items[k]
        return f"{name}@p={p}/seed={s}"

    def run(self, k):
        code = cli.main(self.items[k][6])
        if code not in (0, 1):
            raise RuntimeError(f"{self.label(k)}: sepkit pipeline exited {code}")
        return code == 0, self.items[k][3], code

    def check(self, outs):
        errors = []
        alphas = {}
        for name, g, p, x, value in self.solved:
            alphas[name] = alpha = checks.upper_bound(g.n, g.edges, C)
            errors += [f"set-up solve {name}@p={p}: {e}" for e in
                       checks.solve_errors(g.n, g.edges, C, p, x, value, alpha)]
        for k, (ok, _, code) in enumerate(outs):
            name, g, p, value, s, out, _ = self.items[k]
            res = json.loads(out.read_text())["results"]
            where = self.label(k)
            if res["relaxation_value"] != value:
                errors.append(f"{where}: record relaxation_value {res['relaxation_value']!r}")
            if res["succeeded"] != ok:
                errors.append(f"{where}: exit code {code} but succeeded={res['succeeded']}")
            if ok:
                err = checks.check_cut_record(g.n, g.edges, C, res, alphas[name])
                if err:
                    errors.append(f"{where}: {err}")
            else:
                if res["attempts"] != self.RETRIES:
                    errors.append(f"{where}: failed after {res['attempts']} attempts")
                if res["exact_value"] != alphas[name]:
                    errors.append(f"{where}: exact_value {res['exact_value']} != {alphas[name]}")
        return errors

    def self_test_input(self, outs):
        name, g, p, x, value = self.solved[0]
        for k, (ok, _, _) in enumerate(outs):
            if ok:
                results = json.loads(self.items[k][5].read_text())["results"]
                return (g, p, x, value), (self.items[k][1], results)
        return (g, p, x, value), None


WORKLOADS = {"concave-corpus": ConcaveCorpus, "sdp-scale": SdpScale, "round-cli": RoundCli}


def timed_passes(wl, seconds):
    """Whole passes over the item list until the next pass would end more than
    half a pass after `seconds`."""
    pass_s, item_s, passes = [], [], []
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        outs = []
        for k in range(len(wl.items)):
            ti = perf_counter()
            outs.append(wl.run(k))
            item_s.append(perf_counter() - ti)
        pass_s.append(perf_counter() - t0)
        passes.append(outs)
        if perf_counter() - begin + median(pass_s) / 2.0 > seconds:
            return pass_s, item_s, passes


def facts():
    return {
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        t_prepared = perf_counter()
        reps = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            wl.build()
            wl.warm_up()
            reps.append(perf_counter() - t0)
        setup_s = (t_prepared - T_START) + median(reps)

        if args.trace:
            base_s, _, base_passes = timed_passes(wl, args.seconds / 2.0)
            with Tracer() as tracer:
                pass_s, item_s, passes = timed_passes(wl, args.seconds / 2.0)
            passes = base_passes + passes
        else:
            pass_s, item_s, passes = timed_passes(wl, args.seconds)

        last = passes[-1]
        errors = wl.check(last)
        for n_pass, outs in enumerate(passes[:-1]):
            for k, (a, b) in enumerate(zip(outs, last)):
                if a[:2] != b[:2]:
                    errors.append(f"{wl.label(k)}: pass {n_pass} gave {a[:2]}, last pass {b[:2]}")
        escaped = checks.self_test(C, *wl.self_test_input(last))
        errors += [f"self-test: a check accepted '{e}'" for e in escaped]
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)

        attempted = sum(len(outs) for outs in passes)
        failed = sum(not o[0] for outs in passes for o in outs)
        failing = sorted({wl.label(k).split("/")[0] for k, o in enumerate(last) if not o[0]})
        if failing:
            print(f"{sum(not o[0] for o in last)} of {len(last)} operations per pass failed,"
                  f" on {', '.join(failing)}", file=sys.stderr)
        end_to_end = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median(pass_s), "unit": "s"},
            "item_s.p50": {"value": median(item_s), "unit": "s"},
            "relax_sum": {"value": float(sum(o[1] for o in last)), "unit": "objective"},
        }
        run_doc = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "facts": facts(),
            "items": [wl.label(k) for k in range(len(wl.items))],
            "passes": len(pass_s), "pass_s": pass_s, "item_s": item_s,
            "setup": {"import_s": T_IMPORTED - T_START, "prepare_s": t_prepared - T_IMPORTED,
                      "build_warm_s": reps},
            "failing": failing, "errors": errors,
        }
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = layer_metrics(tracer, len(pass_s))
            metrics["trace.untraced_wall_s"] = {"value": median(base_s), "unit": "s"}
            metrics["trace.traced_wall_s"] = {"value": median(pass_s), "unit": "s"}
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (median(pass_s) / median(base_s) - 1.0), "unit": "%"}
            tracer.dump(OUT / f"trace-{tag}.json", facts())
        else:
            metrics = end_to_end
        run_doc["metrics"] = metrics
        (OUT / f"run-{tag}.json").write_text(json.dumps(run_doc, indent=1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
