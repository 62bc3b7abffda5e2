"""No function in src/rtlopt calls itself, except where the depth is bounded
by something other than the input's nesting or its wire count.

Deep and wide designs must end in a result or a typed error, never in a
Python ``RecursionError``: expressions are folded with ``Expr.fold`` or
walked with ``Expr.walk``, and wires are taken in ``topo_order``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rtlopt"

ALLOWED = {
    "rewrites._balanced": "depth is the log of the operand or mux-arm count",
    "records._codec": "depth is the nesting depth of a record schema",
}


def _self_calls(path, root=SRC):
    """Qualified names of the functions in ``path`` that call themselves: by
    name, or through their first parameter (``self.f``, ``cls.f``) from a
    method."""
    module = ".".join(path.relative_to(root).with_suffix("").parts)
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)}
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        owner = methods.get(id(func))
        receiver = func.args.args[0].arg if owner and func.args.args else None
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if owner is None and isinstance(callee, ast.Name):
                recursive = callee.id == func.name
            elif receiver and isinstance(callee, ast.Attribute):
                recursive = (callee.attr == func.name and isinstance(callee.value, ast.Name)
                             and callee.value.id == receiver)
            else:
                recursive = False
            if recursive:
                yield f"{module}.{owner + '.' if owner else ''}{func.name}"
                break


def test_no_function_recurses_except_the_allowed():
    found = {name for path in sorted(SRC.rglob("*.py")) for name in _self_calls(path)}
    assert found == set(ALLOWED)


def test_scan_finds_direct_and_method_recursion(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n    return f(x - 1) if x else 0\n\n"
        "class C:\n"
        "    def g(self, x):\n        return self.g(x - 1) if x else 0\n\n"
        "    def h(self):\n        return super().h() + other.h()\n")
    assert list(_self_calls(tmp_path / "m.py", tmp_path)) == ["m.f", "m.C.g"]
