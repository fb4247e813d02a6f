"""A ratchet against unexplained settings.

Every ``GridConfig`` field must be set by some code in ``src/``, ``bench/``
or ``examples/`` (as a keyword of ``GridConfig(...)``, ``replace(...)`` or
``dict(...)``, or as a string key of a dict literal, the way experiments
pass overrides), or carry a one-line reason in ``KEPT``.  A name search
is the cheap guard; ``tests/reach/reach.py``'s settings census, which
watches every config the entry points build, is the evidence.
"""

import ast
import dataclasses
from pathlib import Path

from repro.grid.system import GridConfig

ROOT = Path(__file__).resolve().parents[1]

#: Fields nothing outside the tests sets, each with why it stays.
KEPT = {
    "latency_jitter": "ROADMAP item 19's reference model sets it to 0",
    "probe_fanout": "read only by power-of-d selection, which ROADMAP "
                    "item 10 judges",
    "sandbox": "PAPER.md's containment policy, a deployment setting",
}


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def fields_set_in_code() -> set[str]:
    fields = {f.name for f in dataclasses.fields(GridConfig)}
    found = set()
    for top in ("src", "bench", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) \
                        and _name(node.func) in ("GridConfig", "replace", "dict"):
                    found.update(k.arg for k in node.keywords if k.arg in fields)
                elif isinstance(node, ast.Dict):
                    found.update(k.value for k in node.keys
                                 if isinstance(k, ast.Constant)
                                 and k.value in fields)
    return found


def test_every_unset_field_has_a_reason():
    unset = {f.name for f in dataclasses.fields(GridConfig)} \
        - fields_set_in_code()
    assert unset - set(KEPT) == set(), "set these somewhere, delete them, " \
        "or give each a reason in KEPT"
    # A field that gained a setter no longer needs its reason.
    assert set(KEPT) - unset == set()
