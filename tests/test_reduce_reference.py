"""`reduce_instance` against the neighbour-ordering search it replaces.

`_reference_reduce_instance` emits every candidate ordering from scratch,
the identity included, and lifts every colorful dominating set under each.
`reduce_instance` must write the same planar and sidecar text, choose the
same order and raise the same exception on seeded C-RBDS instances, while
building each reduced point once per call and lifting only while a
candidate can still beat the best score so far.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest

from sepline import reduction
from sepline.errors import (GuaranteeViolated, InvalidDominatingSet,
                            NotSeparating, SeplineError)
from sepline.reduction import (CRBDS, SELECTOR_X, colorful_dominating_sets,
                               normalize, reduce_instance)
from sepline.serialization import dumps, instance_to_doc, sidecar_to_doc

from test_reduction import toy, unliftable


def _reference_reduce_instance(norm):
    """The search as it was: `_emit` and `score` for every candidate."""
    inst = norm.inst
    red = reduction._emit(norm)
    if (math.prod(len(cls) for cls in inst.classes)
            > reduction._ORDER_SEARCH_SETS):
        return red
    sets = list(colorful_dominating_sets(inst))
    if not sets:
        return red
    space = 1
    for v in inst.blues:
        space *= math.factorial(inst.degree(v))
        if space > reduction._ORDER_SEARCH_SPACE:
            return red

    def score(cand, r):
        total = 0
        for s in sets:
            try:
                reduction.lift(cand, r, s)
            except (InvalidDominatingSet, NotSeparating):
                continue
            total += 1
        return total

    best, best_inst, best_score = red, inst, score(norm, red)
    if best_score < len(sets):
        for pick in product(*(permutations(inst.neighbors_of_blue(v))
                              for v in inst.blues)):
            cand = replace(norm, inst=replace(inst, order={
                v: list(p) for v, p in zip(inst.blues, pick)}))
            r = reduction._emit(cand)
            sc = score(cand, r)
            if sc > best_score:
                best, best_inst, best_score = r, cand.inst, sc
                if sc == len(sets):
                    break
    norm.inst = best_inst
    return best


def _seeded():
    """C-RBDS instances, each blue with d distinct red neighbours (all
    reds when there are fewer), one of them in a planted set."""
    out = [pytest.param(toy(), id="toy")]
    for k, m, d, seed in product((2, 4), (2, 3), (2, 4), range(8)):
        rng = random.Random(f"reduce {k} {m} {d} {seed}")
        classes = [[f"u{c}_{a}" for a in range(1, m + 1)]
                   for c in range(1, k + 1)]
        reds = [u for cls in classes for u in cls]
        planted = [rng.choice(cls) for cls in classes]
        blues = [f"v{j}" for j in range(1, rng.randint(1, 5) + 1)]
        edges = set()
        for v in blues:
            nbrs = rng.sample(reds, min(d, len(reds)))
            if not set(nbrs) & set(planted):
                nbrs[0] = rng.choice(planted)
            edges.update((u, v) for u in nbrs)
        out.append(pytest.param(CRBDS(classes, blues, edges),
                                id=f"k{k}m{m}d{d}s{seed}n{len(blues)}"))
    return out


def _outcome(search, inst):
    """(planar text, sidecar text, chosen order), or the exception."""
    try:
        norm = normalize(inst)
        red = search(norm)
    except SeplineError as exc:
        return type(exc).__name__, str(exc)
    return (dumps(instance_to_doc(red.points, "planar")),
            dumps(sidecar_to_doc(norm)), norm.inst.order)


@pytest.mark.parametrize("inst", _seeded())
def test_same_texts_order_and_exception_as_the_reference(inst):
    assert _outcome(reduce_instance, inst) == \
        _outcome(_reference_reduce_instance, inst)


def test_the_search_reaches_other_orders():
    """The seeded corpus is one the comparison above can fail on: the
    search runs, and on some instances chooses another order."""
    reordered = 0
    for param in _seeded():
        norm = normalize(param.values[0])
        own = norm.inst
        reduce_instance(norm)
        reordered += norm.inst is not own
    assert reordered >= 2


@pytest.fixture
def traced(monkeypatch):
    """Each `_emit` call's neighbour orders, each `lift` call's candidate
    and outcome, and the number of points built."""
    log = {"emits": [], "lifts": [], "points": 0}
    emit, lift, point = reduction._emit, reduction.lift, reduction.ColoredPoint

    def traced_emit(norm, *args):
        inst = norm.inst
        log["emits"].append(tuple(tuple(inst.neighbors_of_blue(v))
                                  for v in inst.blues))
        return emit(norm, *args)

    def traced_lift(norm, red, chosen):
        try:
            lines = lift(norm, red, chosen)
        except SeplineError:
            log["lifts"].append((red, False))
            raise
        log["lifts"].append((red, True))
        return lines

    def counted_point(*args):
        log["points"] += 1
        return point(*args)

    monkeypatch.setattr(reduction, "_emit", traced_emit)
    monkeypatch.setattr(reduction, "lift", traced_lift)
    monkeypatch.setattr(reduction, "ColoredPoint", counted_point)
    return log


def test_points_are_built_once_and_the_identity_is_not_emitted(traced):
    searched = 0
    for param in _seeded():
        traced.update(emits=[], points=0)
        norm = normalize(param.values[0])
        d, n = norm.d, norm.n
        red = reduce_instance(norm)
        base, *candidates = traced["emits"]
        assert base not in candidates
        assert len(set(candidates)) == len(candidates)
        searched += bool(candidates)
        # one block of 2d points per blue and neighbour order first seen
        blocks = {(j, order) for orders in traced["emits"]
                  for j, order in enumerate(orders)}
        assert len(base) == n
        assert traced["points"] == \
            len(red.points) + 2 * d * (len(blocks) - n)
    assert searched >= 10


def test_no_lift_once_a_candidate_cannot_win(traced):
    stopped = 0
    for param in _seeded():
        norm = normalize(param.values[0])
        own = norm.inst
        traced["lifts"] = []
        reduce_instance(norm)
        if not traced["lifts"]:
            continue  # the search did not run
        n_sets = len(list(colorful_dominating_sets(own)))
        best, red, lifted, missed = -1, None, 0, 0
        for r, ok in [*traced["lifts"], (None, None)]:
            if r is not red:
                if red is not None and lifted + missed < n_sets:
                    # a candidate stops as soon as it cannot win
                    assert missed == n_sets - best
                    stopped += 1
                best = max(best, lifted)
                red, lifted, missed = r, 0, 0
            if r is None:
                break
            # the candidate can still lift more than `best` sets
            assert missed < n_sets - best
            lifted += ok
            missed += not ok
    assert stopped >= 10


def test_a_reused_block_that_breaks_the_layout_raises(monkeypatch):
    """`unliftable()` searches past its own order; the second candidate
    reverses the last blue's neighbours.  That block, built apart and
    corrupted, is lent to the search: the candidate's `validate_layout`
    rejects it."""
    norm = normalize(unliftable())
    inst = norm.inst
    last = len(inst.blues)
    order = tuple(reversed(inst.neighbors_of_blue(inst.blues[-1])))
    cand = replace(norm, inst=replace(inst, order={
        **{v: inst.neighbors_of_blue(v) for v in inst.blues},
        inst.blues[-1]: list(order)}))
    parts = {}
    reduction._emit(cand, parts)
    (p, role), *rest = parts[(last, order)]
    corrupt = [(replace(p, x=Fraction(SELECTOR_X)), role), *rest]
    emit = reduction._emit

    def lending_emit(norm, parts):
        red = emit(norm, parts)
        parts.setdefault((last, order), corrupt)
        return red

    monkeypatch.setattr(reduction, "_emit", lending_emit)
    with pytest.raises(GuaranteeViolated,
                       match="functional point shares a coordinate"):
        reduce_instance(normalize(unliftable()))
