"""Shared pieces of the benchmark: the op record and exact reference arithmetic.

Every check in this package uses the plain ``fractions.Fraction`` helpers
below and never calls into ``multiwedge``, so a wrong answer from the
library cannot be confirmed by the same wrong code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

Vec = tuple[Fraction, ...]

# A check receives the exit code and the captured stdout of one `mw` call
# and returns None when the answer is right, or a one-line reason.
Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    """One `mw` command of a workload and the check of its output."""

    kind: str
    argv: list[str]
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    fixtures: dict[str, object]  # file name -> JSON object, written at set-up
    # A timed run ends on a multiple of this many ops, so that every run
    # measures whole rounds (the same mix) or whole pool passes (the same inputs).
    period: int


def qs(v: Sequence[object]) -> list[str]:
    """Serialise a vector the way `mw` reads it: rationals as strings."""
    return [str(Fraction(e)) for e in v]


def vec(data: Sequence[object]) -> Vec:
    return tuple(Fraction(e) for e in data)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def scale(c: Fraction, a: Sequence[Fraction]) -> Vec:
    return tuple(c * x for x in a)


def total(vectors: Sequence[Sequence[Fraction]], dim: int) -> Vec:
    out: Vec = (Fraction(0),) * dim
    for v in vectors:
        out = add(out, v)
    return out


def mat_vec(rows: Sequence[Sequence[Fraction]], x: Sequence[Fraction]) -> Vec:
    return tuple(dot(r, x) for r in rows)


def inverse(rows: Sequence[Sequence[object]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of a square matrix; raises on a singular one."""
    n = len(rows)
    aug = [
        [Fraction(e) for e in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Positive rescaling of v to coprime integers."""
    den = 1
    for e in v:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in v]
    g = 0
    for e in ints:
        g = gcd(g, e)
    return tuple(e // g for e in ints) if g else tuple(ints)


def simplicial_normals(gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Facet normals of the cone over d independent generators in Q^d.

    With the generators as the columns of G, x = G lam and the cone is
    lam = G^-1 x >= 0, so the normals are the rows of G^-1.
    """
    d = len(gens)
    cols = [[gens[j][i] for j in range(d)] for i in range(d)]
    return [primitive(r) for r in inverse(cols)]


def canonical_problem(vectors: list[Vec]) -> str | None:
    """Why a list is not canonical (coprime integers, sorted, distinct)."""
    for v in vectors:
        if any(e.denominator != 1 for e in v):
            return "a vector has a non-integer entry"
        if any(v) and primitive(v) != tuple(int(e) for e in v):
            return "a vector is not primitive"
    if any(a >= b for a, b in zip(vectors, vectors[1:])):
        return "vectors are not strictly sorted"
    return None


def expect_payload(check: Callable[[dict], "str | None"]) -> Check:
    """Wrap a payload check into an op check that requires exit 0."""

    def run(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {out.strip()[:120]}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        try:
            return check(payload)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            return f"malformed answer: {exc!r}"

    return run


def round_robin(rng, strata: list[tuple[str, int]], rounds: int) -> list[str]:
    """Kinds in rounds; each round holds every stratum `weight` times, shuffled.

    Any prefix of the list therefore has close to the same mix of kinds,
    so a run cut after a fixed time measures the same mix on every seed.
    """
    order: list[str] = []
    for _ in range(rounds):
        block = [kind for kind, weight in strata for _ in range(weight)]
        rng.shuffle(block)
        order.extend(block)
    return order


def pool_pass(rng, strata: list[tuple[str, int]], rounds: int) -> list[tuple[str, int]]:
    """One pass over a pool of `weight * rounds` items per kind, in rounds.

    Each kind walks its items in a seeded order, so every seed runs the
    same pool and only the order differs; a run that covers the pass
    therefore measures the same inputs on every seed.
    """
    orders = {kind: rng.sample(range(weight * rounds), weight * rounds) for kind, weight in strata}
    used = dict.fromkeys(orders, 0)
    out = []
    for kind in round_robin(rng, strata, rounds):
        out.append((kind, orders[kind][used[kind]]))
        used[kind] += 1
    return out
