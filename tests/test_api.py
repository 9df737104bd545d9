"""The public API: every name in ``linesys.__all__`` is exported once,
resolves on the package and is used by the package itself, so a
deleted name cannot linger as a stale export and no name lives on only
for the tests; the line oracle is not exported, the tests take it
from ``tests/reference.py`` only, and the relation and the metric space
it builds each have one constructor; no module keeps an import that only a
vanished tracer site needed, or any other import it does not use, and
starting the CLI loads no module that only a pool or a metric input
needs.  The library sketch in the README runs as written, and so do
the scripts under ``tools/``."""

import ast
import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import linesys
from reference import BetweennessRelation
from test_benchmark_sites import tracer


def test_every_exported_name_resolves():
    missing = [name for name in linesys.__all__ if not hasattr(linesys, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(linesys.__all__) == len(set(linesys.__all__))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from linesys import *", namespace)
    assert set(linesys.__all__) <= namespace.keys()


def names_read(node):
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def test_every_exported_name_is_read_by_the_package():
    # Each exported name is read in a module other than __init__.py,
    # outside its own definition.  poset_from_code is read by no module:
    # it decodes a jsonl poset id.
    read = set()
    for path in sorted(Path(linesys.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            read |= names_read(node) - {getattr(node, "name", None)}
    unread = [name for name in linesys.__all__ if name not in read]
    assert unread == ["poset_from_code"]


# The generic line evaluator and the relation builders: the tests'
# reference, kept in the package only where the benchmark's tracer
# finds them.
ORACLE = {
    "core": ("BetweennessRelation", "all_lines", "line_mask_set", "line_of"),
    "graphs": ("graph_betweenness",),
    "metrics": ("graph_shortest_path_metric", "metric_betweenness"),
    "posets": ("is_extremal_poset", "poset_betweenness"),
}
ORACLE_NAMES = {name for names in ORACLE.values() for name in names}


def test_the_oracle_is_not_exported_and_stays_in_its_modules():
    assert ORACLE_NAMES.isdisjoint(linesys.__all__)
    assert ORACLE_NAMES.isdisjoint(vars(linesys))
    for module, names in ORACLE.items():
        owner = importlib.import_module(f"linesys.{module}")
        assert [name for name in names if not callable(vars(owner).get(name))] == []


def test_the_relation_and_the_metric_space_have_one_constructor():
    # The oracle builds each from its definition through the validating
    # __init__: no classmethod or staticmethod constructor skips it.
    shortcuts = [
        f"{cls.__name__}.{name}"
        for cls in (BetweennessRelation, linesys.MetricSpace)
        for name, value in vars(cls).items()
        if isinstance(value, (classmethod, staticmethod))
    ]
    assert shortcuts == []


def test_only_the_reference_module_imports_the_oracle():
    # So moving the oracle's code out of the package edits one test file.
    importers = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "linesys"
            ):
                importers += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name in ORACLE_NAMES
                ]
    assert importers == []


def test_every_tracer_only_import_is_a_traced_site():
    # A name imported under "# noqa: F401" is there only for the
    # benchmark's tracer, so it must be a site of that module.
    sites = {(site, attr) for _, site, attr, _ in tracer.SITES}
    imported = [
        (f"linesys.{path.stem}", name.strip())
        for path in sorted(Path(linesys.__file__).parent.glob("*.py"))
        for line in path.read_text().splitlines()
        if line.endswith("# noqa: F401")
        for name in line.split(" import ")[1].split("#")[0].split(",")
    ]
    assert imported
    assert [entry for entry in imported if entry not in sites] == []


def test_every_module_level_import_is_used():
    # Tracer-only imports end in "# noqa: F401" and are pinned above;
    # every other imported name is read in its module or exported.
    unused = []
    for path in sorted(Path(linesys.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in {
                target.id for target in node.targets if isinstance(target, ast.Name)
            }:
                read |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                line.endswith("# noqa: F401")
                for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            unused += [
                f"{path.name}: {name}"
                for alias in node.names
                if (name := (alias.asname or alias.name).partition(".")[0]) not in read
            ]
    assert unused == []


def test_no_module_branches_on_a_kind_name():
    # Each kind is described once, in sweeps.KINDS, so no code compares
    # a name ``kind`` with a string literal to pick what a kind does.
    branches = []
    for path in sorted(Path(linesys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                names = {o.id for o in operands if isinstance(o, ast.Name)}
                if "kind" in names and any(
                    isinstance(o, ast.Constant) and isinstance(o.value, str)
                    for o in operands
                ):
                    branches.append(f"{path.name}:{node.lineno}")
    assert branches == []


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_starting_the_cli_loads_neither_multiprocessing_nor_fractions():
    # Only a pooled sweep needs multiprocessing and only a metric input
    # needs fractions, so each is imported on its own path.  -S: no .pth
    # file of the site packages can import either one first.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import linesys.cli; "
        "print(sorted({'multiprocessing', 'fractions'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_code_lines_prints_one_row_per_module_and_their_sum():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    rows = [line.split() for line in result.stdout.splitlines()]
    assert all(len(row) == 2 for row in rows), rows
    *modules, (last, total) = [(name, int(count.replace(",", ""))) for name, count in rows]
    names = [path.name for path in sorted((root / "src" / "linesys").glob("*.py"))]
    assert [name for name, _ in modules] == names
    assert last == "total" and total == sum(count for _, count in modules)


def ab_checkouts(tmp_path):
    """Two copies of the ``src/`` and ``perfbench/`` of this checkout,
    without bytecode, for ``tools/ab.py``."""
    root = Path(__file__).resolve().parent.parent
    copies = []
    for name in ("parent", "change"):
        for part in ("src", "perfbench"):
            shutil.copytree(
                root / part, tmp_path / name / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        copies.append(tmp_path / name)
    return root / "tools" / "ab.py", copies


def test_ab_runs_alternated_pairs_and_prints_every_end_to_end_metric(tmp_path):
    ab, checkouts = ab_checkouts(tmp_path)
    argv = [sys.executable, str(ab), *map(str, checkouts), "--workload", "sweep-metric",
            "--pairs", "1", "--seconds", "0.5"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == "workload sweep-metric: 1 pairs"
    names = [line.split()[0] for line in lines[2:]]
    assert names == ["run_s", "cpu_s", "peak_rss_mb", "setup_s"]
    assert all(line.endswith(" of 1") for line in lines[2:])


def test_ab_exits_1_when_a_run_fails(tmp_path):
    # The parent runs first on pair 0; without its CLI, run.py refuses.
    ab, (parent, change) = ab_checkouts(tmp_path)
    (parent / "src" / "linesys" / "cli.py").unlink()
    argv = [sys.executable, str(ab), str(parent), str(change), "--workload", "sweep-metric",
            "--pairs", "1", "--seconds", "0.5"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert "error: sweep-metric seed 1" in result.stderr
