"""Check that tier-1 witnesses every refusal of the library.

    python tests/refusal_audit.py

Runs the tier-1 suite in process (``--hypothesis-seed=0``, no cache)
under a line tracer limited to ``src/hakensum``, then lists every
``raise`` of a ``hakensum.errors`` class that never ran.  Exits 1 if
there is any, with no exceptions, or if the suite itself fails.  The
tracer makes the suite about three times slower.  Only the standard
library is used, beside the suite's own pytest.  The module is not named
``test_*`` so that pytest does not collect it.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hakensum"


def error_classes():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)}


def refusals(classes):
    """Every raise of one of ``classes`` in the package, as
    (path, line, function, class)."""
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id in classes:
                    found.append((path, child.lineno, function, exc.id))
            visit(child, path, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def run_traced():
    """Run tier-1 under the tracer; return (exit code, lines run)."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q",
                            "--hypothesis-seed=0", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
    return int(code), ran


def main():
    code, ran = run_traced()
    missed = ["{}:{}: {} in {}".format(path.relative_to(ROOT), line, cls,
                                      function or "<module>")
              for path, line, function, cls in refusals(error_classes())
              if (str(path), line) not in ran]
    for entry in missed:
        print("never raised by tier-1:", entry)
    if code:
        print("tier-1 failed under the tracer (pytest exit {})".format(code))
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main())
