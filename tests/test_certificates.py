"""Every certificate of the package is seen to fire.

A certificate is a `raise ArithmeticError(...)` in the package: an
explicit check that `python -O` keeps.  One that no test trips could be
unreachable, or wrong, and nothing would show it.  So each message must
appear in some test, as the text that a fault injection or a
pytest.raises expects.  The messages that no test names yet are listed
in UNFIRED_CERTIFICATES, which may only shrink: a stale entry fails as a
new unseen message does.
"""

import ast
from pathlib import Path

import quatforms

MODULES = sorted(Path(quatforms.__file__).parent.glob("*.py"))
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != Path(__file__).name)

# certificates that no test trips yet (ROADMAP item 23)
UNFIRED_CERTIFICATES = [
    "Brandt column short of Np + 1 orbits covers every neighbor",
    "corner module has unexpected dimension",
    "cyclic submodule has unexpected dimension",
    "element does not reduce into the corner",
    "factorization does not multiply back",
    "isomorphism witness does not map b onto a",
    "matrix unit completion failed",
    "matrix unit relations fail",
    "narrow class number is not h times the sign kernel",
    "neighbor does not have index Np^2 over b",
    "neighbor walk closed below the Eichler mass; the support does not generate the narrow class group",
    "neighbors are not Np + 1 distinct lattices",
    "not the discriminant of an order",
    "powers of the generator are not distinct",
    "prime factorization of p does not multiply back",
    "prime factorization of p has the wrong degree",
    "primes up to the bound do not generate the narrow class group",
    "reduced forms do not close into a cycle",
    "residue field image has wrong dimension",
    "residue module does not have dimension 4 f",
    "splitting does not fix the identity",
    "unit does not preserve the lattice",
    "unit group misses the identity",
    "unit lies outside its left order",
    "unit lies outside the span of its HNF basis",
]


def certificate_messages(source):
    """The sorted messages of the `raise ArithmeticError(...)` statements
    of a module; a message that is not a plain string is given as its
    source text, which no test can name, so it is flagged."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ArithmeticError"):
            continue
        args = node.exc.args
        if args and isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            out.append(args[0].value)
        else:
            out.append(ast.unparse(node.exc))
    return sorted(out)


def unseen(messages, texts):
    """The messages that no text names, verbatim or with backslashes, as a
    regular expression for pytest.raises(match=...) escapes them."""
    plain = [t.replace("\\", "") for t in texts]
    return sorted(m for m in set(messages) if not any(m in t for t in plain))


def test_scan_collects_certificate_messages():
    source = (
        "def f(x):\n"
        "    if x:\n        raise ArithmeticError('x is set')\n"
        "    raise ValueError('not a certificate')\n"
        "def g(n):\n    raise ArithmeticError(f'bad {n}')\n"
    )
    assert certificate_messages(source) == ["ArithmeticError(f'bad {n}')", "x is set"]
    tests = ["assert out.startswith('ArithmeticError: x is set')", "match='a \\\\+ b'"]
    assert unseen(["x is set", "a + b", "y"], tests) == ["y"]


def test_every_certificate_is_seen_to_fire():
    messages = [m for p in MODULES for m in certificate_messages(p.read_text())]
    assert unseen(messages, [p.read_text() for p in TESTS]) == sorted(UNFIRED_CERTIFICATES)
