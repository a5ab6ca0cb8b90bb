"""Every public name the package defines is used by the package itself.

The scan parses ``src/difftrack/*.py`` with ``ast`` and executes nothing.
It lists each public module-level function and class and each public
method or property of a module-level class. A name counts as used when it
appears anywhere in the package as a bare name, an attribute or an import
alias. Code that only the tests reach does not belong in the package; the
allowlist names the few exceptions and why each stays. No linter runs on
the package, so the scan also refuses an import that nothing in its
module reads, unless ``__all__`` re-exports it or its line gives a reason
after ``# noqa: F401``, and a last check holds its lines, and those of
the tests, to ``MAX_COLUMNS``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "difftrack"
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "adaptive_weight_row": (
        "the single-node reference form of the adaptive weight column: "
        "gate c3's oracle, and the engine's in the tests"
    ),
    "read_msd_csv": "the reader of msd.csv that the benchmark's checks and the tests use",
    "infer_clusters": (
        "one matrix's weight components as an assignment, the relation read_clusters "
        "starts from (both go through weight_components): the tests read an engine's "
        "clusters with it"
    ),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

MAX_COLUMNS = 100


def public(node):
    return not node.name.startswith("_")


def definitions(module, tree):
    """(qualified name, bare name) of each public definition in a module."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and public(node):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and public(item):
                    yield f"{module}.{node.name}.{item.name}", item.name


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_name_is_reached_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    used = {name for tree in trees.values() for name in references(tree)}
    defined = [d for module, tree in sorted(trees.items()) for d in definitions(module, tree)]
    unused = [qualified for qualified, name in defined if name not in used and name not in ALLOWED]
    assert not unused, f"public names no package code uses: {unused}"
    # An allowlist entry whose definition is gone, or that the package
    # has started to use, is stale.
    assert set(ALLOWED) <= {name for _, name in defined} - used


def exported(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_read_by_its_module():
    # An import stays unread only when ``__all__`` re-exports it or its
    # line says why, after ``# noqa: F401``.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, str(path))
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        allowed = exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                _, _, reason = lines[alias.lineno - 1].partition("# noqa: F401")
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and name not in allowed and not reason.strip():
                    unread.append(f"{path.name}:{alias.lineno} {name}")
    assert not unread, f"imports nothing in their module reads: {unread}"


def test_no_source_line_is_longer_than_max_columns():
    # The tests are held to the same width as the package.
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    long = [
        f"{path.parent.name}/{path.name}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long, f"lines over {MAX_COLUMNS} columns: {long}"
