"""Independent brute-force oracle for value unification.

The oracle models every atomic value as the subset of a closed 6-atom
universe it denotes (atom -> singleton, atom set -> its members, negated
atom -> complement) and models unification as set intersection, entirely
separately from the library's representation-level rules.  Feature
structures are plain dicts here.  A comparison then checks that the
library's result *denotes* the same set the oracle computed, and that it
is canonical (no atom set of fewer than two members), which keeps the two
implementations independent: the oracle never constructs library values
for intermediate results.

One combination is not denotationally representable in an open atom
universe: unifying two *different* negated atoms (the true answer,
"neither a nor b", has no value form).  The library documents a
conservative failure for that pair; the oracle pins exactly that rule.
"""

from __future__ import annotations

import itertools
import random

from turklex.featstruct import FeatStruct, Neg, unify

UNIVERSE = ("a", "b", "c", "d", "e", "f")

# Oracle-world values: str (atom), frozenset (atom set), ("neg", atom),
# dict (feature structure).  FAIL is oracle-failure.
FAIL = object()


def denote(value):
    """Subset of UNIVERSE an oracle-world atomic value stands for."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, frozenset):
        return set(value)
    if isinstance(value, tuple) and value[0] == "neg":
        return set(UNIVERSE) - {value[1]}
    raise TypeError(f"not an atomic oracle value: {value!r}")


def is_neg(value):
    return isinstance(value, tuple) and value and value[0] == "neg"


def oracle_unify(x, y):
    """Reference unification over oracle-world values."""
    if isinstance(x, dict) and isinstance(y, dict):
        out = dict(x)
        for name, yv in y.items():
            if name in out:
                merged = oracle_unify(out[name], yv)
                if merged is FAIL:
                    return FAIL
                out[name] = merged
            else:
                out[name] = yv
        return out
    if isinstance(x, dict) or isinstance(y, dict):
        return FAIL
    if is_neg(x) and is_neg(y):
        # Undefined by the value algebra; pinned to the library's
        # conservative rule: equal succeeds, different fails.
        return x if x == y else FAIL
    meet = denote(x) & denote(y)
    return meet if meet else FAIL


def to_library(value):
    """Build the library representation of an oracle-world value."""
    if isinstance(value, str):
        return value
    if isinstance(value, frozenset):
        return value
    if is_neg(value):
        return Neg(value[1])
    if isinstance(value, dict):
        return FeatStruct([(k, to_library(v)) for k, v in value.items()])
    raise TypeError(f"cannot convert {value!r}")


def denote_library(value):
    """Denotation of a library value, for comparing against the oracle."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, frozenset):
        return set(value)
    if isinstance(value, Neg):
        return set(UNIVERSE) - {value.atom}
    raise TypeError(f"unexpected library value {value!r}")


def library_matches(lib_result, oracle_result):
    """True iff the library's unification result denotes the oracle's set
    in canonical form: an atom set has at least two members, so a
    one-atom result is a bare ``str``."""
    if lib_result is None:
        return oracle_result is FAIL
    if oracle_result is FAIL:
        return False
    if isinstance(lib_result, FeatStruct):
        if not isinstance(oracle_result, dict):
            return False
        if set(lib_result.keys()) != set(oracle_result.keys()):
            return False
        return all(
            library_matches(lib_result[k], oracle_result[k]) for k in oracle_result
        )
    if isinstance(oracle_result, dict):
        return False
    if is_neg(oracle_result):
        # conserved negation shape (neg vs equal neg)
        return isinstance(lib_result, Neg) and denote_library(lib_result) == denote(
            oracle_result
        )
    if isinstance(lib_result, frozenset) and len(lib_result) < 2:
        return False
    return denote_library(lib_result) == set(oracle_result)


def atomic_pool():
    """All atomic oracle values used in the exhaustive sweep."""
    atoms = list(UNIVERSE)
    sets = [
        frozenset(c) for c in itertools.combinations(("a", "b", "c"), 2)
    ] + [frozenset(("a", "b", "c"))]
    negs = [("neg", "a"), ("neg", "b")]
    return atoms + sets + negs


def depth1_pool():
    """Every feature structure over features {x, y} with atomic values."""
    pool = [{}]
    values = atomic_pool()
    pool += [{"x": v} for v in values]
    pool += [{"y": v} for v in values]
    pool += [{"x": v, "y": w} for v in values for w in values]
    return pool


def depth2_pool():
    """Single-feature structures whose value may itself be depth-1."""
    inner = atomic_pool() + depth1_pool()
    return [{"z": v} for v in inner]


def check_pair(a, b):
    """Run one oracle-vs-library comparison; returns an error string or None."""
    expected = oracle_unify(a, b)
    la, lb = to_library(a), to_library(b)
    got = unify(la, lb)
    got_rev = unify(lb, la)
    if not library_matches(got, expected):
        return f"unify({a!r}, {b!r}): library {got!r} != oracle {expected!r}"
    # commutativity: same failure status and same denotation
    if (got is None) != (got_rev is None):
        return f"unify({a!r}, {b!r}): commutativity failure-status mismatch"
    if got is not None and not library_matches(got_rev, expected):
        return f"unify({b!r}, {a!r}): reversed result diverges from oracle"
    return None


def check_idempotent(a):
    la = to_library(a)
    got = unify(la, la)
    expected = oracle_unify(a, a)
    if not library_matches(got, expected):
        return f"unify({a!r}, {a!r}) not idempotent: got {got!r}"
    return None


def exhaustive_sweep():
    """Yield error strings for every defined-combination failure (none expected)."""
    errors = []
    atoms = atomic_pool()
    d1 = depth1_pool()
    d2 = depth2_pool()
    for a, b in itertools.product(atoms, atoms):
        err = check_pair(a, b)
        if err:
            errors.append(err)
    for a, b in itertools.product(d1, d1):
        err = check_pair(a, b)
        if err:
            errors.append(err)
    for a, b in itertools.product(d2, d2):
        err = check_pair(a, b)
        if err:
            errors.append(err)
    for a in atoms + d1:
        err = check_idempotent(a)
        if err:
            errors.append(err)
    return errors


def random_value(rng, depth):
    """Random oracle-world value tree of bounded depth."""
    if depth <= 0 or rng.random() < 0.45:
        kind = rng.choice(("atom", "atom", "set", "neg"))
        if kind == "atom":
            return rng.choice(UNIVERSE)
        if kind == "set":
            size = rng.randint(2, 4)
            return frozenset(rng.sample(UNIVERSE, size))
        return ("neg", rng.choice(UNIVERSE))
    names = rng.sample(("p", "q", "r", "s"), rng.randint(0, 3))
    return {n: random_value(rng, depth - 1) for n in names}


def randomized_sweep(n_cases=1000, seed=2024):
    """Deep randomized oracle-vs-library comparisons; returns error strings."""
    rng = random.Random(seed)
    errors = []
    for _ in range(n_cases):
        a = {"t": random_value(rng, 4)}
        b = {"t": random_value(rng, 4)}
        err = check_pair(a, b)
        if err:
            errors.append(err)
        err = check_idempotent(a)
        if err:
            errors.append(err)
    return errors
