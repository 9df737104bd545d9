"""The public API: every name in ``linesys.__all__`` is exported once,
resolves on the package and is used by the package itself, so a
deleted name cannot linger as a stale export and no name lives on only
for the tests; no module keeps an import that only a vanished tracer
site needed, or any other import it does not use.  The library sketch
in the README runs as written."""

import ast
import re
from pathlib import Path

import linesys
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
    # outside its own definition, or is a traced site of the benchmark.
    # poset_from_code is read by no module: it decodes a jsonl poset id.
    read = set()
    for path in sorted(Path(linesys.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            read |= names_read(node) - {getattr(node, "name", None)}
    traced = {attr for _, _, attr, _ in tracer.SITES}
    unread = [name for name in linesys.__all__ if name not in read | traced]
    assert unread == ["poset_from_code"]


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


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
