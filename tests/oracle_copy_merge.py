"""Reference unification by copy-both-then-merge.

The operands are both copied whole, as one new root holding both, so under
one memo, and the copy of ``y`` is merged destructively into the copy of
``x``.  It is slow but plain, and it gives the answers, sharing included,
that :func:`turklex.featstruct.unify` must give while copying only the
nodes it places.
"""

from __future__ import annotations

from turklex.featstruct import FeatStruct, Seq, _meet_atoms, copy_fs


def copy_merge_unify(x, y):
    both = copy_fs(FeatStruct([("x", x), ("y", y)]))
    return _merge(both["x"], both["y"])


def _merge(x, y):
    if isinstance(x, FeatStruct):
        if not isinstance(y, FeatStruct):
            return None
        for name, yv in y.items():
            if name in x:
                merged = _merge(x[name], yv)
                if merged is None:
                    return None
                x[name] = merged
            else:
                x[name] = yv
        return x
    if isinstance(x, Seq):
        if not isinstance(y, Seq) or len(x) != len(y):
            return None
        merged = []
        for xv, yv in zip(x, y):
            m = _merge(xv, yv)
            if m is None:
                return None
            merged.append(m)
        x[:] = merged
        return x
    return _meet_atoms(x, y)
