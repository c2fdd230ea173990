"""Every exception the package defines is a ``SpectralDenoiseError`` in ``errors``.

Callers catch one base class, and the CLI maps each subclass to its
documented exit code; an exception class defined anywhere else, or one
that skips the base, escapes both.  The check reads the source, so it
also covers classes that no test imports.
"""

import ast
import builtins
from pathlib import Path

import spectral_denoise
from spectral_denoise import SpectralDenoiseError, errors, io

PACKAGE = Path(spectral_denoise.__file__).resolve().parent
BASE = "SpectralDenoiseError"
BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}


def _classes():
    """``(location, name, base names)`` of every class defined under the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else
                         b.attr if isinstance(b, ast.Attribute) else None
                         for b in node.bases]
                yield f"{path.relative_to(PACKAGE)}:{node.lineno}", node.name, bases


def test_exceptions_live_in_errors_and_derive_from_the_base():
    classes = list(_classes())
    assert classes
    exceptions = set(BUILTIN_EXCEPTIONS)
    reaches_base = {BASE}
    grew = True
    while grew:  # close over subclasses of subclasses, in any file order
        grew = False
        for _, name, bases in classes:
            if name not in exceptions and exceptions.intersection(bases):
                exceptions.add(name)
                grew = True
            if name not in reaches_base and reaches_base.intersection(bases):
                reaches_base.add(name)
                grew = True
    bad = sorted(f"{where} {name}" for where, name, bases in classes
                 if exceptions.intersection(bases)
                 and (not where.startswith("errors.py:")
                      or (name != BASE and name not in reaches_base)))
    assert bad == []


def test_file_errors_are_domain_errors():
    assert io.MatrixFileError is errors.MatrixFileError
    assert spectral_denoise.MatrixFileError is errors.MatrixFileError
    assert issubclass(io.MatrixFileError, SpectralDenoiseError)
    assert issubclass(io.MatrixFileError, ValueError)
