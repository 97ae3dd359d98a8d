"""Every module-level function of the library has a caller in the library.

A function that only tests call belongs in tests/reference.py.  The scan
reads src/queercrystals/*.py except __init__.py, whose re-exports are not
callers.  A function counts as referenced when code outside its own body
reads its name from module scope (a local variable of the same name does
not count), reads it as an attribute of a package module (`bumping.bump`)
or imports it, and that code is itself module-level code or a referenced
function.  A method counts as read when library code outside its own body
reads an attribute of its name; dunders, which the language calls, and
from_strings, which ShiftedTableau's repr prints, are exempt.
"""

import ast
import pathlib
import symtable

SRC = pathlib.Path(__file__).parents[1] / "src" / "queercrystals"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def global_reads(table):
    """Names that a scope and the scopes nested in it read from module scope."""
    out = {sym.get_name() for sym in table.get_symbols()
           if sym.is_referenced() and sym.is_global()}
    for child in table.get_children():
        out |= global_reads(child)
    return out


def imported_reads(node, modules):
    """Names that node imports or reads as attributes of package modules."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            out.add(sub.attr)
    return out


def unreferenced_functions(src=SRC):
    paths = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    modules = {p.stem for p in src.glob("*.py")}
    defs = {}   # function name -> module
    uses = {None: set()}  # function name, or None for module code -> reads
    for path in paths:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        top = {stmt.name for stmt in tree.body if isinstance(stmt, DEFS)}
        defs.update(dict.fromkeys(top, path.stem))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFS) else None
            uses.setdefault(owner, set()).update(imported_reads(stmt, modules))
        table = symtable.symtable(text, str(path), "exec")
        uses[None] |= {sym.get_name() for sym in table.get_symbols()
                       if sym.is_referenced()}
        for child in table.get_children():
            owner = child.get_name() if child.get_name() in top else None
            uses[owner] |= global_reads(child)
    dead = set()
    while True:
        live = set().union(*(names - {owner} for owner, names in uses.items()
                             if owner not in dead))
        now = {name for name in defs if name not in live}
        if now == dead:
            return sorted(f"{defs[name]}.{name}" for name in dead)
        dead = now


EXEMPT_METHODS = {"from_strings"}


def unread_methods(src=SRC):
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    methods = [(f"{mod}.{cls.name}.{m.name}", m)
               for mod, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for m in cls.body
               if isinstance(m, DEFS) and m.name not in EXEMPT_METHODS
               and not (m.name.startswith("__") and m.name.endswith("__"))]
    reads = [(node.attr, node) for tree in trees.values()
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for name, method in methods:
        own = set(map(id, ast.walk(method)))
        if not any(attr == method.name and id(node) not in own
                   for attr, node in reads):
            unread.append(name)
    return unread


def test_every_module_level_function_is_referenced():
    assert unreferenced_functions() == []


def test_the_scan_finds_uncalled_functions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def shadowed():\n    return 2\n\n"
        "def only_dead_code_calls():\n    return 3\n\n"
        "def dead():\n    return only_dead_code_calls()\n\n"
        "def caller(x):\n    shadowed = used()\n    return x.dead() + shadowed\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import caller\n\nX = caller(a.used)\n")
    (tmp_path / "__init__.py").write_text("from .a import recursive\n")
    assert unreferenced_functions(tmp_path) == [
        "a.dead", "a.only_dead_code_calls", "a.recursive", "a.shadowed"]


def test_every_method_is_read():
    assert unread_methods() == []


def test_the_scan_finds_unread_methods(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def from_strings(self):\n        return 1\n\n"
        "    def used(self):\n        return self.recursive()\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    def planted(self):\n        return 2\n")
    (tmp_path / "b.py").write_text("from .a import A\n\nX = A().used()\n")
    (tmp_path / "__init__.py").write_text("from .a import A\nA.planted\n")
    assert unread_methods(tmp_path) == ["a.A.planted"]
