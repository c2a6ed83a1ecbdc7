"""The bench imports sepkit names, calls them with fixed arguments and
patches some by name for its span tracer; these tests catch a rename,
deletion or signature change of any of them before a bench run does.
bench/run.py is parsed, not imported: importing it pins thread variables
and edits sys.path.  README's command lines are held to the CLI and the
scripts directory the same way."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import numpy as np

from sepkit import cli, concave, sdp  # cli imports every traced module
from sepkit.corpus import cycle_graph
from sepkit.embeddings import GramForm, embedding_from_gram
from sepkit.graphs import dump_graph
from sepkit.rounding import PipelineOptions

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS_PATH = BENCH / "spans.py"
RUN_PATH = BENCH / "run.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_tracer_restores_them():
    spans = load_spans()
    originals = {}
    for mod_name, fn_name, _ in spans.TRACED:
        mod = importlib.import_module(f"sepkit.{mod_name}")
        assert callable(getattr(mod, fn_name, None)), f"sepkit.{mod_name}.{fn_name}"
        originals[mod_name, fn_name] = (mod, getattr(mod, fn_name))
    with spans.Tracer():
        for (mod_name, fn_name), (mod, fn) in originals.items():
            assert getattr(mod, fn_name) is not fn, f"{mod_name}.{fn_name} not patched"
    for (mod_name, fn_name), (mod, fn) in originals.items():
        assert getattr(mod, fn_name) is fn, f"{mod_name}.{fn_name} not restored"


def test_tracer_reads_the_core_round_cap():
    from sepkit import solver_core

    params = inspect.signature(solver_core.minimize_linear_zform).parameters
    assert "max_rounds" in params
    assert load_spans().Tracer()._max_rounds == params["max_rounds"].default


def test_tracer_counts_real_calls(tmp_path):
    # the tracer's observer reads CoreResult and SetFindResult fields: run it
    # over one solve of each kind and one in-process `sepkit pipeline` call
    spans = load_spans()
    g = cycle_graph(4)
    graph = tmp_path / "c4.txt"
    graph.write_text(dump_graph(g))
    argv = ["pipeline", "--graph", str(graph), "--p", "2", "--c", "0.25",
            "--out", str(tmp_path / "record.json")]
    with spans.Tracer() as tracer:
        sdp.solve_sdp(g, 0.25)
        concave.solve_concave(g, 0.25, 1.0)
        assert cli.main(argv) == 0
    metrics = spans.layer_metrics(tracer, 1)
    for key in ("sdp.solves", "solver_core.evals", "solver_core.al_rounds",
                "rounding.attempts", "cli.calls"):
        assert metrics[key]["value"] > 0, key


def bench_run_tree():
    return ast.parse(RUN_PATH.read_text())


def bench_sepkit_names(tree):
    """(module, name) for every name bench/run.py imports from a sepkit
    module, and every attribute it reads off a sepkit module it imports
    under an alias."""
    aliases = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("sepkit"):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sepkit"):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return names


def test_bench_sepkit_names_resolve():
    names = bench_sepkit_names(bench_run_tree())
    assert ("sepkit.concave", "solve_concave") in names
    assert ("sepkit.cli", "main") in names
    for mod_name, name in sorted(names):
        mod = importlib.import_module(mod_name)
        assert hasattr(mod, name), f"{mod_name}.{name}"


def test_bench_call_shapes_bind():
    g = cycle_graph(4)
    inspect.signature(concave.solve_concave).bind(
        g, 0.25, 1.0, concave.ConcaveOptions(starts=4, seed=0)
    )
    inspect.signature(sdp.solve_sdp).bind(g, 0.25)
    inspect.signature(embedding_from_gram).bind(GramForm(np.eye(4)))


def test_bench_pipeline_argv_parses():
    # the bench's one `pipeline` argv literal, with a placeholder value for
    # every element that is computed at run time
    lists = [node for node in ast.walk(bench_run_tree())
             if isinstance(node, ast.List) and node.elts
             and isinstance(node.elts[0], ast.Constant) and node.elts[0].value == "pipeline"]
    assert len(lists) == 1
    argv = [e.value if isinstance(e, ast.Constant) else "1" for e in lists[0].elts]
    args = cli.build_parser().parse_args(argv)
    assert args.func is cli.cmd_pipeline
    for flag in (a for a in argv if a.startswith("--")):
        assert getattr(args, flag.lstrip("-").replace("-", "_")) is not None, flag


def readme_code_lines():
    """Lines inside README's fenced code blocks."""
    lines, inside = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            inside = not inside
        elif inside:
            lines.append(line.strip())
    return lines


def test_readme_commands_parse_and_scripts_exist():
    lines = readme_code_lines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("sepkit ")]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
    scripts = [m for line in lines for m in re.findall(r"python3? (scripts/\S+\.py)", line)]
    assert scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script


# reference checks that only the tests compare against (ROADMAP item 8)
TEST_ONLY_NAMES = {
    "is_c_balanced", "cut_to_embedding", "check_separated", "grid_oracle_n3",
}


def top_level_definitions(tree):
    """(name, first line, last line) of each top-level def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def name_references(tree):
    """(name, line) of every name read, attribute and name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((a.name, node.lineno) for a in node.names)


def test_every_package_name_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "scripts", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    refs = {path: list(name_references(tree)) for path, tree in trees.items()}
    uncalled = set()
    for path in sorted((ROOT / "src" / "sepkit").glob("*.py")):
        for name, first, last in top_level_definitions(trees[path]):
            called = any(
                ref == name and not (where == path and first <= line <= last)
                for where, found in refs.items() for ref, line in found
            )
            if not called:
                uncalled.add(name)
    assert uncalled == TEST_ONLY_NAMES, sorted(uncalled ^ TEST_ONLY_NAMES)


def test_package_root_binds_only_the_version():
    tree = ast.parse((ROOT / "src" / "sepkit" / "__init__.py").read_text())
    bound = [name for name, _, _ in top_level_definitions(tree)]
    assert bound == ["__version__"]
    assert all(isinstance(node, (ast.Expr, ast.Assign)) for node in tree.body)


# members read only by tests or only through `asdict`, each with its reason
UNREAD_MEMBERS = {
    # `asdict(report.residuals)` writes it to every `sepkit solve` record
    "FeasibilityReport.max_unit_violation",
    # criterion 8's hand trace checks which cross pairs set-find deleted
    "SetFindResult.deleted_pairs",
}


def class_members(tree):
    """(class, member, first line, last line of the class) of each method
    (dunders aside) and each annotated field of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield node.name, item.name, node.lineno, node.end_lineno
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, node.lineno, node.end_lineno


def member_references(tree):
    """(name, line) of every attribute load and every string constant, the
    way records and CSV rows name a field."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_method_and_field_has_a_reader_outside_its_class():
    refs = {path: list(member_references(ast.parse(path.read_text())))
            for folder in ("src", "scripts", "bench")
            for path in sorted((ROOT / folder).rglob("*.py"))}
    unread = set()
    for path in sorted((ROOT / "src" / "sepkit").glob("*.py")):
        for cls, name, first, last in class_members(ast.parse(path.read_text())):
            if not any(ref == name and not (where == path and first <= line <= last)
                       for where, found in refs.items() for ref, line in found):
                unread.add(f"{cls}.{name}")
    assert unread == UNREAD_MEMBERS, sorted(unread ^ UNREAD_MEMBERS)


def sepkit_imports(path):
    """The sepkit modules a package file imports, named within the package."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("sepkit" if node.level else "", node.module)))
            modules.update(f"{base}.{a.name}" if base == "sepkit" else base for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
    return {m.removeprefix("sepkit.") for m in modules if m.startswith("sepkit")}


def test_rounding_rounds_what_it_is_given():
    # solving is the caller's stage: rounding reads graphs and embeddings only
    assert sepkit_imports(ROOT / "src" / "sepkit" / "rounding.py") == {"graphs", "embeddings"}
    assert [f.name for f in dataclasses.fields(PipelineOptions)] == [
        "delta", "sigma", "retries", "seed",
    ]
