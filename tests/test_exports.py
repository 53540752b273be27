"""Every name a module exports, and every public method or property of a
class, is used by the package itself.

A name in some `__all__`, or a method, that no code under `src/kdvtau`
references is a helper only tests reach; such helpers belong in `tests/`.
References are names and attribute names anywhere in the package, except
inside the definition of the name itself.  Methods are matched by name, so
a method whose name another class also defines must name a function of the
package that references it.  The allowlists name the exceptions.
"""

import ast
from collections import Counter
from pathlib import Path

import kdvtau

SRC = Path(kdvtau.__file__).resolve().parent

ALLOWED = {
    "schur_poly": "the benchmark trace rebinds it (and it is the Jacobi-Trudi cross-check)",
    "series_inverse": "the benchmark trace rebinds it",
    "intersection_number": "the benchmark trace rebinds it",
    "zhou_affine_table": "the benchmark trace rebinds it",
    "rescale_B": "one B as a Fraction: the tests' reading of Zhou's closed form",
    "point_to_json": "the writer beside the point-file reader",
    "verify_Bn_recursion": "a verifier of the paper's recursion that awaits a CLI suite",
    "verify_combinatorial_identity": "a verifier of the paper's identity that awaits a CLI suite",
}


def exports_and_references():
    exported, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "__all__":
                exported.update((name, path.stem) for name in ast.literal_eval(stmt.value))
                continue
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if ref != own:
                    used.add(ref)
    return exported, used


def test_every_export_is_used_in_the_package():
    exported, used = exports_and_references()
    unused = {f"{module}.{name}" for name, module in exported.items() if name not in used}
    assert unused == {f"{exported[name]}.{name}" for name in ALLOWED}


METHODS_ALLOWED = {  # "module.Class.method" -> why it stays
    "grassmann.ZTable.to_affine_table": "the benchmark trace rebinds it",
    "grassmann.AffineTable.to_json_dict": "the benchmark trace rebinds it",
    "grassmann.AffineTable.to_csv_text": "the benchmark trace rebinds it",
}

# "module.Class.method" whose name another class also defines -> a function
# ("module.function" or "module.Class.method") whose body references it
SHARED_NAME_CALLERS = {
    "schur.GradedPoly.truncate": "tau.TauSeries.truncate",
    "tau.TauSeries.truncate": "cli.cmd_grassmann",
}


def references(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_method_is_used_in_the_package():
    used, methods, functions = Counter(), [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used += references(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[f"{path.stem}.{node.name}"] = node
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    functions[f"{path.stem}.{cls.name}.{item.name}"] = item
                    if not item.name.startswith("_"):
                        methods.append((f"{path.stem}.{cls.name}.{item.name}", item))
    unused = {name for name, item in methods if used[item.name] == references(item)[item.name]}
    assert unused == set(METHODS_ALLOWED)
    # a shared name counts as used through either class: each names its caller
    defined = Counter(item.name for _, item in methods)
    shared = {name for name, item in methods if defined[item.name] > 1}
    assert shared == set(SHARED_NAME_CALLERS)
    for name, caller in SHARED_NAME_CALLERS.items():
        assert references(functions[caller])[name.rsplit(".", 1)[1]], (name, caller)
