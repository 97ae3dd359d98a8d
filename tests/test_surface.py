"""Every function of the library runs, and the library keeps its shape.

A function that only tests call belongs in tests/reference.py.  The run
check imports the package in a fresh process under sys.setprofile, runs a
fixed list of qc commands and then the verify targets at test bounds
(bump-properties, the slowest, at max_len 3), and fails on any
module-level function or method whose code no call reached; code that
runs at import counts.  Dunders, which the language calls,
ShiftedTableau.from_strings and entry_from_str, which only the repr format
reads, and VerifyResult.fail, which only a failing target calls, are
exempt.

Nine structure scans, on the syntax tree alone: no function imports
inside its body, no module imports a name it never reads, no module but
permwords names the move table's private functions or reads a .moves
attribute, no module but permwords calls a Coxeter-Knuth move, only
verify.run_target builds a VerifyResult and no module but verify imports
inspect, no class defines again a method of a base class from its own
module (the target base of permwords and the tableau base of tableaux
state each of their methods once), the six gl_n crystal operators keep to
the one bracket rule, a carrier's tables alone send the label 1bar to its
queer operators, and symchar stays off crystals while the weight trim and
the tableau order stay out of crystals.

An inventory scan lists every memo that lives for the process and pins
the list, each entry with the workload hits that keep it.  An import
check keeps dataclasses, inspect and typing off the import path of the
CLI, and the package root binds no library name.  README's library sketch
runs and gives the values its comments state.
"""

import ast
import contextlib
import importlib
import io
import os
import pathlib
import subprocess
import sys
from functools import partial

TESTS = pathlib.Path(__file__).parent
SRC = TESTS.parent / "src" / "queercrystals"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_trees(src=SRC):
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(src.glob("*.py"))}


def class_methods(trees):
    """(module, class, method def) of every non-dunder method."""
    return [(mod, cls.name, m)
            for mod, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for m in cls.body
            if isinstance(m, DEFS)
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def function_imports(src=SRC):
    """module.function (line) of every import inside a function body: the
    package imports at module level only, so its module graph stays
    acyclic and visible in each module's head."""
    return [f"{mod}.{fn.name} ({node.lineno})"
            for mod, tree in module_trees(src).items()
            for fn in ast.walk(tree) if isinstance(fn, DEFS)
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_function_imports():
    assert function_imports() == []


def test_the_scan_finds_function_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n\n"
        "def local():\n    from . import b\n    return b\n\n"
        "class A:\n    def method(self):\n        import sys\n"
        "        return sys\n")
    assert function_imports(tmp_path) == ["a.local (4)", "a.method (9)"]


MOVE_TABLE_NAMES = {"_move_node", "_step"}


def move_table_reads(src=SRC):
    """module (line) of every use outside permwords of the move table's
    private names, or of a .moves attribute: permwords alone reads and
    fills the move table, so the move rule is stated once."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "permwords":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.ImportFrom):
                name = next((alias.name for alias in node.names
                             if alias.name in MOVE_TABLE_NAMES), None)
            else:
                continue
            if name in MOVE_TABLE_NAMES or (
                    name == "moves" and isinstance(node, ast.Attribute)):
                out.append(f"{path.stem} ({node.lineno})")
    return out


def test_only_permwords_reads_the_move_table():
    assert move_table_reads() == []


def test_the_scan_finds_move_table_reads(tmp_path):
    (tmp_path / "permwords.py").write_text(
        "def _step(flav, node, a):\n    return flav.moves\n")
    (tmp_path / "a.py").write_text(
        "from .permwords import _step\n\n"
        "def walk(flav, moves):\n"
        "    return _step(flav, None, 1), moves, flav.moves\n")
    (tmp_path / "b.py").write_text(
        "from . import permwords\n\n"
        "def node(flav):\n    return permwords._move_node(flav, None)\n")
    assert move_table_reads(tmp_path) == [
        "a (1)", "a (4)", "a (4)", "b (4)"]


CK_NAMES = {"ck", "ck0", "ck0_o", "ck0_sp"}


def ck_calls(src=SRC):
    """module (line) of every call outside permwords of a Coxeter-Knuth
    move, by name or as an attribute: permwords.ck_moves alone lists a
    word's ck images, so the move list is stated once."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "permwords":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in CK_NAMES:
                out.append(f"{path.stem} ({node.lineno})")
    return out


def test_only_permwords_calls_the_ck_moves():
    assert ck_calls() == []


def test_the_scan_finds_ck_calls(tmp_path):
    (tmp_path / "permwords.py").write_text(
        "def ck_moves(w, ck0):\n    return [(0, ck0(w)), (1, ck(w, 1))]\n")
    (tmp_path / "a.py").write_text(
        "from . import permwords\nfrom .permwords import ck, ck_moves\n\n"
        "def sides(w, flav):\n"
        "    ck0 = flav.ck0\n"
        "    return ck(w, 1), ck0(w), flav.ck0(w), permwords.ck0_sp(w), "
        "ck_moves(w, ck0)\n")
    assert ck_calls(tmp_path) == ["a (6)", "a (6)", "a (6)", "a (6)"]


def target_fact_restatements(src=SRC):
    """module.function (line) of every VerifyResult built outside
    verify.run_target, and module (line) of every import of inspect outside
    verify: run_target alone names a result, by its key in TARGETS, and
    verify.target_bounds alone reads which bounds a check takes."""
    out = []
    for mod, tree in module_trees(src).items():
        for stmt in tree.body:
            owner = f"{mod}.{getattr(stmt, 'name', None)}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name == "VerifyResult" and owner != "verify.run_target":
                        out.append(f"{owner} ({node.lineno})")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = ([alias.name.split(".")[0] for alias in node.names]
                               if isinstance(node, ast.Import) else [node.module])
                    if mod != "verify" and "inspect" in modules:
                        out.append(f"{mod} ({node.lineno})")
    return out


def test_only_run_target_names_a_result_and_verify_reads_signatures():
    assert target_fact_restatements() == []


def test_the_scan_finds_results_and_signature_reads(tmp_path):
    (tmp_path / "verify.py").write_text(
        "import inspect\n\n"
        "def run_target(name):\n    return VerifyResult(name, True)\n\n"
        "def check(res):\n    return VerifyResult('check', True)\n")
    (tmp_path / "cli.py").write_text(
        "import inspect\nfrom inspect import signature\n"
        "from . import verify\n\n"
        "class C:\n    def run(self):\n"
        "        return verify.VerifyResult('x', False)\n")
    assert target_fact_restatements(tmp_path) == [
        "cli (1)", "cli (2)", "cli.C (7)", "verify.check (7)"]


def unread_imports(src=SRC):
    """module.name of every name that a module imports and never reads."""
    out = []
    for mod, tree in module_trees(src).items():
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in reads:
                    out.append(f"{mod}.{name}")
    return sorted(out)


def test_every_import_is_read():
    assert unread_imports() == []


def test_the_scan_finds_unread_imports(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport sys as system\n"
        "from functools import partial, reduce\n\n"
        "def f(x: partial):\n    return os.sep, x\n")
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    assert unread_imports(tmp_path) == ["__init__.f", "a.reduce", "a.system"]


def test_the_package_root_binds_only_its_modules():
    """Library names are imported from their modules, so the root holds
    only __version__, dunders and the submodules that Python binds there."""
    package = importlib.import_module("queercrystals")
    for path in SRC.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"queercrystals.{path.stem}")
    assert [name for name, value in vars(package).items()
            if not name.startswith("__")
            and not isinstance(value, type(package))] == []


def readme_sketch():
    """The python block under README's "Library sketch" heading."""
    text = (TESTS.parent / "README.md").read_text()
    block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def test_the_readme_sketch_runs():
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(readme_sketch(), ns)
    assert len(ns["crys"]) == 24 and len(ns["comps"]) == 1
    assert ns["hw"] == [((1, 3, 4), (2,), ())]
    assert ns["moved"] == (3, 2, 4, 5)
    assert ns["ch"][(2, 1, 1)] == 4
    assert ns["poly"].startswith("x1^3*x2 + x1^3*x3 + ")
    assert ns["coeffs"] == {(3, 1): 1}


def redefined_base_methods(src=SRC):
    """module.Class.method of every method that a class defines again
    although a base class in the same module defines it: a base class
    states its methods once, and its subclasses add only their own."""
    def methods(cls):
        return {m.name for m in cls.body if isinstance(m, DEFS)}

    out = []
    for mod, tree in module_trees(src).items():
        classes = {node.name: node for node in tree.body
                   if isinstance(node, ast.ClassDef)}
        for cls in classes.values():
            inherited = set().union(*(
                methods(classes[base.id]) for base in cls.bases
                if isinstance(base, ast.Name) and base.id in classes))
            out += [f"{mod}.{cls.name}.{name}"
                    for name in sorted(methods(cls) & inherited)]
    return out


def test_no_subclass_redefines_a_base_method():
    assert redefined_base_methods() == []


def test_the_scan_finds_redefined_base_methods(tmp_path):
    (tmp_path / "a.py").write_text(
        "class _Base:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    def shared(self):\n        return 1\n\n\n"
        "class A(_Base):\n"
        "    def __init__(self):\n        pass\n\n"
        "    def shared(self):\n        return 2\n\n\n"
        "class B(_Base):\n"
        "    def __eq__(self, other):\n        return False\n\n"
        "    def own(self):\n        return 3\n\n\n"
        "class C(dict):\n"
        "    def get(self, key):\n        return key\n")
    assert redefined_base_methods(tmp_path) == ["a.A.shared", "a.B.__eq__"]


MEMO_DECORATORS = {"cache", "lru_cache"}


def _name(node):
    """The name that a Name or Attribute node reads, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _is_empty_dict(value):
    """{} or dict()."""
    return (isinstance(value, ast.Dict) and not value.keys) or (
        isinstance(value, ast.Call) and _name(value.func) == "dict"
        and not value.args and not value.keywords)


def _is_memo_value(value):
    """An empty dict, or a value built from LazyMap."""
    return _is_empty_dict(value) or any(
        isinstance(call, ast.Call) and _name(call.func) == "LazyMap"
        for call in ast.walk(value))


def memo_inventory(src=SRC):
    """module.name of every memo that lives for the process: a function
    decorated with lru_cache or cache, a module-level name bound to an
    empty dict or to a value built from LazyMap, and a new dict for each
    record of a class: a field whose default is one, or an attribute that
    __init__ binds to one."""
    out = []
    for mod, tree in module_trees(src).items():
        out += [f"{mod}.{node.name}" for node in ast.walk(tree)
                if isinstance(node, DEFS)
                and any(_name(getattr(d, "func", d)) in MEMO_DECORATORS
                        for d in node.decorator_list)]
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and _is_memo_value(stmt.value):
                out += [f"{mod}.{t.id}" for t in stmt.targets]
            elif (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    and _is_memo_value(stmt.value)):
                out.append(f"{mod}.{stmt.target.id}")
            elif isinstance(stmt, ast.ClassDef):
                out += [f"{mod}.{stmt.name}.{field.target.id}"
                        for field in stmt.body
                        if isinstance(field, ast.AnnAssign)
                        and isinstance(field.value, ast.Call)
                        and any(kw.arg == "default_factory"
                                and _name(kw.value) == "dict"
                                for kw in field.value.keywords)]
                out += [f"{mod}.{stmt.name}.{target.attr}"
                        for fn in stmt.body
                        if isinstance(fn, DEFS) and fn.name == "__init__"
                        for node in ast.walk(fn)
                        if isinstance(node, ast.Assign)
                        and _is_empty_dict(node.value)
                        for target in node.targets
                        if isinstance(target, ast.Attribute)
                        and _name(target.value) == "self"]
    return sorted(out)


# Every memo of the library, each with the hits that keep it: one process
# per workload at default bounds (verify-bump: the three bump targets;
# verify-crystal: the ten others; queries: the seed-0 stream of one cycle).
# A new memo lands here with its own count.
MEMOS = [
    # verify-bump: 3,583 hits in 3,744 lookups
    "bumping._base_conjugates",
    # queries: 264 hits in 265 calls, one parser for the stream
    "cli.build_parser",
    # the move tables: verify-bump steps 135,088 of 137,333 moves from a
    # stored node
    "permwords.Flavor.moves",
    # the word tables: verify-crystal 228 of 299 (reduced), 531 of 625
    # (involution), 468 of 552 (fpf); queries 183 of 281, 380 of 540,
    # 211 of 280
    "permwords._fpf_cache",
    "permwords._involution_cache",
    "permwords._reduced_cache",
    # verify-bump: 30,282 of 35,896 (reduced), 18,309 of 20,966
    # (involution), 15,076 of 18,510 (fpf)
    "permwords._walk_tables",
    # 0 hits (verify-crystal 0 of 5 and 0 of 158), kept while
    # perfbench/tracer.py reads their cache_info
    "permwords.fpf_target",
    "permwords.involution_target",
    # verify-crystal: 11 of 20 and 74 of 83
    "symchar.schur_poly",
    "symchar.schurp_poly",
    # verify-crystal: 54,321 of 54,339
    "tableaux._column_rows",
    # verify-crystal: 16 of 33
    "tableaux.semistandard_shifted_tableaux",
    # verify-crystal: 3,521 of 4,865
    "verify._p_tableau",
    # verify-crystal: 13,004 of 15,942; verify-bump: 5,175 of 8,888
    "verify._q_tableau",
    # verify-crystal: 94 of 99
    "verify._word_component_certs",
]


def test_every_memo_is_in_the_inventory():
    assert memo_inventory() == MEMOS


def test_the_scan_finds_memos(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\n"
        "from dataclasses import dataclass, field\n"
        "from functools import cache, lru_cache, partial\n"
        "from .m import LazyMap\n\n"
        "SEEN = {}\nMORE = dict()\nTABLE: dict = {}\n"
        "CONST = {1: 2}\nLIST = []\n"
        "TABLES = {k: LazyMap(str) for k in 'ab'}\n\n"
        "@lru_cache(maxsize=None)\ndef one(x):\n    return x\n\n"
        "@cache\ndef two(x):\n    return {}\n\n"
        "@functools.cache\ndef three(x):\n    return LazyMap(x)\n\n"
        "@partial(print)\ndef plain(x):\n    memo = {}\n    return memo\n\n"
        "@dataclass\nclass R:\n"
        "    memo: dict = field(default_factory=dict)\n"
        "    rows: list = field(default_factory=list)\n\n"
        "    @lru_cache\n    def method(self):\n        return 1\n\n"
        "class S:\n    __slots__ = ('name', 'rows', 'memo')\n\n"
        "    def __init__(self, name):\n"
        "        self.name, self.rows = name, []\n        self.memo = {}\n\n"
        "    def reset(self):\n        self.rows = {}\n\n"
        "class T:\n    def __init__(self, f):\n"
        "        self.table = LazyMap(f)\n")
    (tmp_path / "m.py").write_text("LAZY = LazyMap(len)\n")
    assert memo_inventory(tmp_path) == [
        "a.MORE", "a.R.memo", "a.S.memo", "a.SEEN", "a.TABLE", "a.TABLES",
        "a.method", "a.one", "a.three", "a.two", "m.LAZY"]


# dataclasses, inspect and typing, and what dataclasses brings in with inspect
HEAVY_MODULES = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def heavy_imports(module="queercrystals.cli", path=SRC.parent):
    """The HEAVY_MODULES that importing module from path loads in a fresh
    interpreter run with -S, since site may load typing itself."""
    code = ("import sys\nbefore = set(sys.modules)\n"
            f"sys.path.insert(0, {str(path)!r})\nimport {module}\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    return sorted(HEAVY_MODULES & set(proc.stdout.split()))


def test_the_cli_loads_no_heavy_module():
    assert heavy_imports() == []


def test_the_import_check_finds_heavy_modules(tmp_path):
    (tmp_path / "records.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n")
    assert heavy_imports("records", tmp_path) == sorted(HEAVY_MODULES)


GL_OPERATORS = ("word_f", "word_e", "fac_f", "fac_e", "shtab_f", "shtab_e")


def bracket_rule_forks(src=SRC):
    """crystals.name of every gl_n operator that does not call _unpaired,
    and of _factor_letters if it is defined: the six operators read the
    one bracket rule, and no second letter list feeds it."""
    tree = module_trees(src)["crystals"]
    defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
    calls = {name: {_name(node.func) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)} for name, fn in defs.items()}
    out = [f"crystals.{name}" for name in GL_OPERATORS
           if "_unpaired" not in calls.get(name, ())]
    return out + ["crystals._factor_letters"] * ("_factor_letters" in defs)


def test_every_gl_operator_reads_the_bracket_rule():
    assert bracket_rule_forks() == []


def test_the_scan_finds_forked_bracket_rules(tmp_path):
    (tmp_path / "crystals.py").write_text(
        "def _unpaired(a, b):\n    return [], []\n\n"
        "def _factor_letters(fac, i):\n    return fac\n\n"
        "def word_f(w, i):\n    return _unpaired(w, w)\n\n"
        "def fac_f(fac, i):\n    return _unpaired(*_factor_letters(fac, i))\n\n"
        "def fac_e(fac, i):\n    return fac\n\n"
        "def shtab_f(t, i):\n    return _unpaired(t, t)\n\n"
        "def shtab_e(t, i):\n    def inner():\n        return _unpaired(t, t)\n"
        "    return inner()\n")
    assert bracket_rule_forks(tmp_path) == [
        "crystals.word_e", "crystals.fac_e", "crystals._factor_letters"]


def _owned_nodes(tree):
    """(owner, node) for every node of a module-level function or a method,
    nested functions and lambdas included: owner is function or
    Class.method."""
    for stmt in tree.body:
        if isinstance(stmt, DEFS):
            defs = [(stmt.name, stmt)]
        elif isinstance(stmt, ast.ClassDef):
            defs = [(f"{stmt.name}.{m.name}", m) for m in stmt.body
                    if isinstance(m, DEFS)]
        else:
            continue
        for owner, fn in defs:
            for node in ast.walk(fn):
                yield owner, node


def queer_dispatches(src=SRC):
    """module.function (line) of every test `== QBAR` or `is QBAR`, on
    either side, outside crystals.Crystal.__init__: a carrier's tables alone
    send the label 1bar to its queer operators.  A label filter such as
    `i != QBAR` is not a dispatch."""
    out = []
    for mod, tree in module_trees(src).items():
        for owner, node in _owned_nodes(tree):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.Is)) for op in node.ops)
                    and "QBAR" in map(_name, (node.left, *node.comparators))
                    and f"{mod}.{owner}" != "crystals.Crystal.__init__"):
                out.append(f"{mod}.{owner} ({node.lineno})")
    return out


def test_crystal_tables_are_the_one_queer_dispatch():
    assert queer_dispatches() == []


def test_the_scan_finds_queer_dispatches(tmp_path):
    (tmp_path / "crystals.py").write_text(
        "QBAR = '1bar'\n\n"
        "class Crystal:\n"
        "    def __init__(self, f, fq):\n"
        "        self.f = lambda x, i: fq(x) if i == QBAR else f(x, i)\n\n"
        "    def step(self, x, i):\n        return QBAR == i\n\n"
        "def queer_ops(f, fq):\n"
        "    def f_all(x, i):\n"
        "        return fq(x) if i == QBAR else f(x, i)\n"
        "    return f_all\n\n"
        "def gl_labels(labels):\n"
        "    return [i for i in labels if i != QBAR]\n")
    (tmp_path / "cli.py").write_text(
        "from . import crystals\n\n"
        "class Crystal:\n    def __init__(self, i):\n"
        "        self.queer = i is crystals.QBAR\n")
    assert queer_dispatches(tmp_path) == [
        "cli.Crystal.__init__ (5)", "crystals.Crystal.step (8)",
        "crystals.queer_ops (12)"]


def _imports_crystals(node):
    """Whether an import statement reads the crystals module or a name of it."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "crystals" or any(
            alias.name == "crystals" for alias in node.names)
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[-1] == "crystals" for alias in node.names)


def layering_breaks(src=SRC):
    """symchar (line) of every import of crystals in symchar, and
    crystals.name of _trim and _sort_key if crystals defines them: symchar
    owns the weight trim and sits below the crystals, and a tableau sorts
    by its own order."""
    trees = module_trees(src)
    out = [f"symchar ({node.lineno})" for node in ast.walk(trees["symchar"])
           if _imports_crystals(node)]
    defs = {node.name for node in trees["crystals"].body
            if isinstance(node, DEFS)}
    return out + [f"crystals.{name}" for name in ("_sort_key", "_trim")
                  if name in defs]


def test_symchar_sits_below_crystals():
    assert layering_breaks() == []


def test_the_scan_finds_layering_breaks(tmp_path):
    (tmp_path / "symchar.py").write_text(
        "from .crystals import _trim\nfrom . import crystals, tableaux\n"
        "import queercrystals.crystals\nfrom .tableaux import weight\n\n"
        "def expand(p):\n    from .crystals import QBAR\n    return QBAR\n")
    (tmp_path / "crystals.py").write_text(
        "def _sort_key(x):\n    return x\n\n"
        "def _trim(wt):\n    return wt\n\n"
        "class Crystal:\n    def _sort_key(self):\n        return 0\n")
    assert layering_breaks(tmp_path) == [
        "symchar (1)", "symchar (2)", "symchar (3)", "symchar (7)",
        "crystals._sort_key", "crystals._trim"]


# the qc commands of the run check: every insertion, text and JSON, every
# carrier kind, JSON and DOT, every expansion basis, a bump, a class and a
# verify target
QC_COMMANDS = [
    ["insert", "(3)(12)", "--flavor", "eg", "--json"],
    ["insert", "(4)(23)(12)", "--flavor", "oeg", "--json"],
    ["insert", "(4)(23)(12)", "--flavor", "speg", "--json"],
    ["insert", "332332", "--flavor", "hm", "--json"],
    ["insert", "(4)(23)(12)", "--flavor", "oeg"],
    ["crystal", "(1,3)", "--flavor", "eg", "--n", "2", "--json"],
    ["crystal", "(1,3)", "--flavor", "oeg", "--n", "2", "--json"],
    ["crystal", "(1,4)(2,3)", "--flavor", "speg", "--n", "2", "--json"],
    ["crystal", "--shape", "2,1", "--n", "2", "--json"],
    ["crystal", "(1,3)", "--flavor", "oeg", "--n", "2"],
    ["expand", "(1,3)", "--flavor", "reduced", "--n", "2"],
    ["expand", "(1,3)", "--flavor", "involution", "--n", "2"],
    ["expand", "(1,4)(2,3)", "--flavor", "fpf", "--n", "2"],
    ["bump", "2134", "(2,5)"],
    ["class", "21", "--relation", "O"],
    ["verify", "crystal-axioms"],
]

# the repr format (ShiftedTableau.from_strings and the entry parser it reads)
# and the failure path of a verify result
EXEMPT_FROM_RUN = {"ShiftedTableau.from_strings", "entry_from_str",
                   "VerifyResult.fail"}


def library_functions(src=SRC):
    """module.function of every module-level function and
    module.Class.method of every method, dunders and EXEMPT_FROM_RUN
    (named without the module) aside."""
    trees = module_trees(src)
    names = [(mod, stmt.name) for mod, tree in trees.items()
             for stmt in tree.body if isinstance(stmt, DEFS)]
    names += [(mod, f"{cls}.{m.name}") for mod, cls, m in class_methods(trees)]
    return sorted(f"{mod}.{name}" for mod, name in names
                  if name not in EXEMPT_FROM_RUN)


def _code(package, name):
    """The code object of module.function or module.Class.method, through
    property, staticmethod, classmethod and lru_cache wrappers."""
    mod, *path = name.split(".")
    fn = importlib.import_module(f"{package}.{mod}")
    for part in path:
        fn = vars(fn)[part] if isinstance(fn, type) else getattr(fn, part)
    for attr in ("fget", "__func__", "__wrapped__"):
        fn = getattr(fn, attr, fn)
    return fn.__code__


def not_run(names, package, steps):
    """The names (module.function or module.Class.method in the package)
    whose code no call reached, under sys.setprofile, while the package's
    modules were imported and then the steps ran.  Code that runs at import
    counts, so the package must not be imported before.  The steps stop
    once every such code has run."""
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(hook)
    try:
        codes = {_code(package, name): name for name in names}
        for step in steps:
            if ran >= codes.keys():
                break
            step()
    finally:
        sys.setprofile(None)
    return sorted(name for code, name in codes.items() if code not in ran)


def run_command(argv):
    from queercrystals import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def verify_target(name, bounds):
    from queercrystals.verify import run_target

    assert run_target(name, **bounds).ok, name


# bump-properties, by far the slowest target at test bounds, runs all of its
# code at max_len 3 too
RUN_BOUNDS = {"bump-properties": {"max_len": 3}}


def library_steps():
    """The commands, then the targets at test bounds or RUN_BOUNDS.  A
    generator, so that the package is first imported inside not_run."""
    from test_verify import TARGET_BOUNDS

    yield from (partial(run_command, argv) for argv in QC_COMMANDS)
    yield from (partial(verify_target, name, RUN_BOUNDS.get(name, bounds))
                for name, bounds in TARGET_BOUNDS)


def test_every_function_runs():
    """Run in a fresh process, so that the package is imported under the
    hook and no cache an earlier test filled spares a call."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(map(str, (SRC.parent, TESTS))))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_run_check_finds_methods_that_never_run(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(
        "from functools import lru_cache\n\n\n"
        "def at_import():\n    return 0\n\n\n"
        "def never():\n    return 1\n\n\n"
        "@lru_cache(maxsize=None)\ndef cached(x):\n    return x\n\n\n"
        "def entry_from_str(s):\n    return s\n\n\n"
        "class A:\n"
        "    def __init__(self):\n        self.x = cached(1)\n\n"
        "    def shared(self):\n        return 1\n\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n\n"
        "    @property\n    def size(self):\n        return 2\n\n\n"
        "class B:\n"
        "    def shared(self):\n        return 4\n\n"
        "    @staticmethod\n    def make():\n        return B()\n\n"
        "    @property\n    def size(self):\n        return 5\n\n\n"
        "X = at_import()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    names = library_functions(pkg)
    assert names == ["a.A.make", "a.A.shared", "a.A.size", "a.B.make",
                     "a.B.shared", "a.B.size", "a.at_import", "a.cached",
                     "a.never"]

    def step():
        from pkg.a import A
        A.make().shared()
        return A().size

    assert not_run(names, "pkg", [step]) == [
        "a.B.make", "a.B.shared", "a.B.size", "a.never"]


if __name__ == "__main__":
    print("\n".join(not_run(library_functions(), "queercrystals",
                             library_steps())))
