"""Propositional formulas for the benchmark's own checks, apart from the engine.

A formula is a tuple: ``("atom", name)``, ``("!", inner)`` or
``(op, left, right)`` with ``op`` one of ``&``, ``|``, ``->``.  The text
grammar is the engine's: binary connectives always take parentheses and the
canonical rendering has no spaces.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(->|[()!&|]|[A-Za-z0-9_?]+)")


def parse(text: str) -> tuple:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    at = 0

    def token() -> str:
        if at >= len(tokens):
            raise ValueError(f"truncated formula text {text!r}")
        return tokens[at]

    def formula() -> tuple:
        nonlocal at
        tok = token()
        if tok == "!":
            at += 1
            return ("!", formula())
        if tok == "(":
            at += 1
            left = formula()
            op = token()
            at += 1
            right = formula()
            if token() != ")" or op not in ("&", "|", "->"):
                raise ValueError(f"bad formula text {text!r}")
            at += 1
            return (op, left, right)
        at += 1
        return ("atom", tok)

    out = formula()
    if at != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return out


def render(f: tuple) -> str:
    if f[0] == "atom":
        return f[1]
    if f[0] == "!":
        return "!" + render(f[1])
    return f"({render(f[1])}{f[0]}{render(f[2])})"


def atoms(f: tuple) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(atoms(x) for x in f[1:]))


def subformulas(f: tuple) -> set:
    if f[0] == "atom":
        return {f}
    return {f}.union(*(subformulas(x) for x in f[1:]))


def evaluate(f: tuple, valuation: dict) -> bool:
    op = f[0]
    if op == "atom":
        return valuation[f[1]]
    if op == "!":
        return not evaluate(f[1], valuation)
    a, b = evaluate(f[1], valuation), evaluate(f[2], valuation)
    if op == "&":
        return a and b
    if op == "|":
        return a or b
    return (not a) or b


def entails(premises: list, goal: tuple) -> bool:
    names = sorted(atoms(goal).union(*(atoms(p) for p in premises)))
    for bits in itertools.product((False, True), repeat=len(names)):
        val = dict(zip(names, bits))
        if all(evaluate(p, val) for p in premises) and not evaluate(goal, val):
            return False
    return True


def all_formulas(names: list, max_len: int) -> list:
    """Every formula over single-symbol atom names with rendered length <= max_len."""
    by_len: dict = {1: [("atom", n) for n in sorted(names)]}
    for n in range(2, max_len + 1):
        fresh = [("!", f) for f in by_len.get(n - 1, [])]
        for op, overhead in (("&", 3), ("|", 3), ("->", 4)):
            for left_len in range(1, n - overhead):
                for left in by_len.get(left_len, []):
                    for right in by_len.get(n - overhead - left_len, []):
                        fresh.append((op, left, right))
        by_len[n] = fresh
    return [f for n in sorted(by_len) for f in by_len[n]]
