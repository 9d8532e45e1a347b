"""Properties of the package source itself."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lgmirror")


def test_no_assert_statements():
    """Invariants raise errors: `python -O` strips assert statements."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            if lines:
                found[name] = lines
    assert found == {}, f"assert statements at {found}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """Each module uses only the public names of the others: no
    `module._name` on an imported lgmirror module, and no
    `from lgmirror.module import _name`."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "lgmirror":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lgmirror."):
                found += [f"{name}:{node.lineno} {node.module}.{a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Import):
                modules.update(a.asname for a in node.names if a.name.startswith("lgmirror.") and a.asname)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                found.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == [], f"private names read across modules: {found}"


def _trees(folder: str) -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                out[name] = ast.parse(fh.read(), filename=name)
    return out


def _imports_of(package: str) -> list[str]:
    """file:line of every import of `package`, or of a module in it, in src/."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in _trees(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == package for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package
    ]


def test_no_dataclasses_import():
    """A fresh command would pay 10 ms for `dataclasses` (it loads `inspect`,
    `ast` and `dis`); plain classes and `typing.NamedTuple` do its job."""
    assert _imports_of("dataclasses") == []


def test_no_sympy_import():
    """sympy serves only the benchmark's reference checks (perfbench/): the
    exact polynomials of src/ are `scalars.Laurent`."""
    assert _imports_of("sympy") == []


def _is_report_call(node: ast.AST) -> bool:
    """Whether `node` is json.dumps(x, sort_keys=True) with no other keyword."""
    return (
        isinstance(node, ast.Call)
        and len(node.args) == 1
        and [(k.arg, getattr(k.value, "value", None)) for k in node.keywords] == [("sort_keys", True)]
    )


def test_one_json_writer():
    """`cli` alone writes JSON, by one json.dumps(report, sort_keys=True),
    in json's C encoder: no indent, which Python 3.11 serves from the
    pure-Python encoder, no json.dump, and no module imports json.encoder or
    names from json."""
    found, calls = [], []
    for name, tree in _trees(SRC).items():
        reports = {id(node.func) for node in ast.walk(tree) if _is_report_call(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno}" for a in node.names if a.name.startswith("json.")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append(f"{name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
                and node.attr in ("dump", "dumps", "encoder")
            ):
                ok = name == "cli.py" and node.attr == "dumps" and id(node) in reports
                (calls if ok else found).append(f"{name}:{node.lineno}")
    assert found == [], f"json written other than by cli's json.dumps(report, sort_keys=True) at {found}"
    assert len(calls) == 1, calls  # cli._report, for every command


def test_one_schema_string():
    """The schema of the reports is decided once, by `cli.SCHEMA`: no other
    string of the package names a schema version."""
    found = [
        name
        for name, tree in _trees(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("lg-mirror/")
    ]
    assert found == ["cli.py"], found


def _referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded bare names, attributes and imported
    names, but not the names it assigns."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _perfbench_names() -> set[str]:
    """The lgmirror names the benchmark reads: `from lgmirror.x import name`
    and `module.name` on a module imported from lgmirror."""
    out = set()
    for tree in _trees(os.path.join(ROOT, "perfbench")).values():
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lgmirror"):
                if node.module == "lgmirror":
                    modules.update(a.asname or a.name for a in node.names)
                else:
                    out.update(a.name for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                out.add(node.attr)
    return out


def _defined(tree: ast.Module) -> list[str]:
    """The top-level functions, classes and assigned names of a module."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


# the console script of pyproject.toml
ENTRY_POINTS = {"main"}


def test_every_public_name_has_a_caller():
    """src/ holds what a command runs: each public top-level function, class
    or constant of a module is read somewhere in src/ (its own
    module included), or is a CLI entry point or a name the benchmark reads.
    Test-only helpers live in tests/ as oracles."""
    trees = _trees(SRC)
    read = set().union(*map(_referenced, trees.values()))
    allowed = ENTRY_POINTS | _perfbench_names()
    unread = []
    for name, tree in trees.items():
        unread += [f"{name[:-3]}.{d}" for d in _defined(tree) if not d.startswith("_") and d not in read | allowed]
    assert unread == [], f"public names no command reads: {unread}"


def test_every_private_name_has_a_caller():
    """Each private top-level function, class or constant of a module is
    read somewhere in src/: a private table kept only for tests has no
    place there."""
    trees = _trees(SRC)
    read = set().union(*map(_referenced, trees.values()))
    unread = []
    for name, tree in trees.items():
        unread += [f"{name[:-3]}.{d}" for d in _defined(tree) if _private(d) and d not in read]
    assert unread == [], f"private names no module reads: {unread}"


def _attributes_read(folder: str) -> set[str]:
    return {node.attr for tree in _trees(folder).values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_class_member_has_a_caller():
    """Each method or property a class in src/ defines, dunders aside, is
    read as `.name` somewhere in src/, tests/ or perfbench/.
    Members only the tests read are allowed: they are how the tests see a
    value."""
    folders = [SRC] + [os.path.join(ROOT, d) for d in ("tests", "perfbench")]
    read = set().union(*map(_attributes_read, folders))
    unread = []
    for name, tree in _trees(SRC).items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            unread += [
                f"{name[:-3]}.{cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in read
            ]
    assert unread == [], f"class members nothing reads: {unread}"


def test_every_test_helper_has_a_caller():
    """Each top-level name of a helper module in tests/ (cliffordops,
    displays, fractionpairs, fractionwindows, multistart, signedpairs,
    subsetmaps, sweeps, weylgroup), and each top-level name of a test
    module other than its tests, is read somewhere in tests/: an oracle
    left behind by a deleted test has no place there."""
    trees = _trees(os.path.join(ROOT, "tests"))
    read = set().union(*map(_referenced, trees.values()))
    unread = []
    for name, tree in trees.items():
        unread += [f"{name[:-3]}.{d}" for d in _defined(tree) if not d.startswith("test_") and d not in read]
    assert unread == [], f"test helpers nothing reads: {unread}"


def _lgmirror_imports(tree: ast.Module) -> set[str]:
    """The lgmirror modules a module imports, by module name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "lgmirror":
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lgmirror."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("lgmirror."))
    return out


# the subword route's tables, which the spin route must not read
SUBWORD_ROUTE = {"wp_transitions", "_alive", "_subword_plan", "wp_subword_sums"}


def test_plucker_routes_share_no_table():
    """The spin route and the subword route to the Pluecker coordinates stay
    independent, so that their agreement tests something: grouprep names
    none of the subword route's tables (its moves come from the Clifford
    image), and weyl imports neither grouprep nor clifford.  Both share only
    the basis order of partitions.all_subsets."""
    trees = _trees(SRC)
    assert _referenced(trees["grouprep.py"]) & SUBWORD_ROUTE == set()
    assert _lgmirror_imports(trees["weyl.py"]) & {"grouprep", "clifford"} == set()


def test_jacobi_reads_the_spin_moves_only_through_the_plan():
    """grouprep owns the one plan of the spin row: jacobi's forward map and
    peel read `gr.sweep_moves`, and jacobi names neither the full spin
    factors nor the word that orders them."""
    tree = _trees(SRC)["jacobi.py"]
    assert _referenced(tree) & {"spin_f_moves", "spin_move_positions", "canonical_wp_word"} == set()
    assert "sweep_moves" in _referenced(tree)


def _suite_table_violations(source: str) -> list[str]:
    """Where the cli source `source` names a `verify` suite outside its
    `_SUITES` table: a string literal equal to a suite name, or a comparison
    of `args.suite` with a literal."""
    tree = ast.parse(source)
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_SUITES" for t in node.targets)
    ]
    names = {key.value for key in table.keys}
    inside = {id(node) for node in ast.walk(table)}
    found = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names and id(node) not in inside
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr == "suite" for x in operands) and any(
                isinstance(x, ast.Constant) for x in operands
            ):
                found.append(f"line {node.lineno}: args.suite compared with a literal")
    return found


def test_suite_names_appear_only_in_the_suite_table():
    """Each `verify` suite is one entry of `cli._SUITES`: no string literal
    of cli.py outside the table names a suite, and no code compares
    `args.suite` with a literal, so adding a suite takes one table entry and
    its runner."""
    with open(os.path.join(SRC, "cli.py")) as fh:
        assert _suite_table_violations(fh.read()) == []
