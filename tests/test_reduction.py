from dataclasses import replace
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from sepline.errors import (BudgetViolation, GuaranteeViolated,
                            InvalidDominatingSet, NoSignalLine, NotSeparating)
from sepline.geometry import AxisLine, verify_separation
from sepline.oracles import colorful_rbds_solve, feasible_pq
from sepline.reduction import (CRBDS, ReducedInstance, extract,
                               extract_vertices, lift, normalize,
                               reduce_instance, validate_layout)
from sepline.serialization import sidecar_from_doc, sidecar_to_doc


def toy():
    return CRBDS(classes=[["u1", "u2"], ["u3", "u4"]],
                 blues=["v1", "v2"],
                 edges={("u1", "v1"), ("u3", "v1"),
                        ("u2", "v2"), ("u3", "v2")})


def unliftable():
    """The smallest planted instance (k = m = d = n = 2) on which `lift` of
    the colorful dominating set {u1_1, u2_1} finds no separating defender
    assignment under the chosen neighbor ordering."""
    return CRBDS(classes=[["u1_1", "u1_2"], ["u2_1", "u2_2"]],
                 blues=["v1", "v2"],
                 edges={("u1_1", "v2"), ("u2_1", "v1"),
                        ("u2_2", "v1"), ("u2_2", "v2")})


class TestNormalize:
    def test_toy_unchanged(self):
        norm = normalize(toy())
        assert norm.d == 2 and norm.m == 2 and norm.k == 2
        assert not norm.added_degree_class
        assert not norm.added_parity_class
        assert norm.inst.classes == [["u1", "u2"], ["u3", "u4"]]

    def test_uneven_degrees(self):
        # degrees 2 and 3 -> base degree 4 (next even), plus 2 for the
        # bookend pendant slots; pendant-holding classes added
        inst = CRBDS(classes=[["a", "b", "c"]], blues=["v", "w"],
                     edges={("a", "v"), ("b", "v"),
                            ("a", "w"), ("b", "w"), ("c", "w")})
        norm = normalize(inst)
        assert norm.d == 6
        assert norm.added_degree_class
        assert all(norm.inst.degree(v) == norm.d for v in norm.inst.blues)
        assert norm.k % 2 == 0
        assert len({len(c) for c in norm.inst.classes}) == 1

    def test_parity_class(self):
        inst = CRBDS(classes=[["a", "b"]], blues=["v"],
                     edges={("a", "v"), ("b", "v")})
        norm = normalize(inst)
        assert norm.k == 2 and norm.added_parity_class

    def test_answer_preserved(self):
        # original No stays No; original Yes stays Yes
        yes = toy()
        no = CRBDS(classes=[["a"]], blues=["v", "w"], edges={("a", "v")})
        assert (colorful_rbds_solve(normalize(yes).inst) is not None) \
            == (colorful_rbds_solve(yes) is not None) is True
        assert (colorful_rbds_solve(normalize(no).inst) is not None) \
            == (colorful_rbds_solve(no) is not None) is False

    def test_empty_blues_rejected(self):
        with pytest.raises(ValueError):
            normalize(CRBDS([["a"]], [], set()))

    def test_given_order_kept(self):
        norm = normalize(replace(toy(), order={"v1": ["u3", "u1"]}))
        assert norm.inst.neighbors_of_blue("v1") == ["u3", "u1"]
        assert norm.inst.neighbors_of_blue("v2") == ["u2", "u3"]

    def test_given_order_kept_inside_degree_classes(self):
        # v2 has degree 1, so the low and high classes are added: the
        # given order sits between the low-class and the high-class
        # neighbours, as the class-then-position order puts them
        inst = CRBDS(classes=[["u1", "u2"], ["u3", "u4"]],
                     blues=["v1", "v2"],
                     edges={("u1", "v1"), ("u3", "v1"), ("u2", "v2")},
                     order={"v1": ["u3", "u1"], "v2": ["u2"]})
        norm = normalize(inst)
        assert norm.added_degree_class
        assert norm.inst.neighbors_of_blue("v1") == [
            "_lo_v1", "u3", "u1", "_hi_v1"]
        assert norm.inst.neighbors_of_blue("v2") == [
            "_lo_v2", "_pend_v2_1", "u2", "_hi_v2"]
        assert normalize(replace(inst, order=None)).inst.neighbors_of_blue(
            "v1") == ["_lo_v1", "u1", "u3", "_hi_v1"]
        # the sidecar loader accepts it: each order permutes the neighbours
        loaded, _ = sidecar_from_doc(sidecar_to_doc(norm))
        assert loaded.inst.order == norm.inst.order


class TestReduce:
    def test_toy_counts(self):
        red = reduce_instance(normalize(toy()))
        assert len(red.points) == 22  # 4 selectors + 8 functional + 4 guards + 6
        assert (red.p, red.q) == (4, 3)

    def test_point_formula(self):
        inst = CRBDS(classes=[["a", "b", "c"]], blues=["v", "w"],
                     edges={("a", "v"), ("b", "v"),
                            ("a", "w"), ("b", "w"), ("c", "w")})
        norm = normalize(inst)
        red = reduce_instance(norm)
        k, d, n = norm.k, norm.d, norm.n
        assert len(red.points) == 2 * k + 3 * d * n + 6

    def test_roles_cover_all_points(self):
        red = reduce_instance(normalize(toy()))
        assert sorted(red.layout.roles) == [p.id for p in red.points]


class TestLiftExtract:
    def test_lift_valid_sets_separate(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        for s in (["u1", "u3"], ["u2", "u3"]):
            lines = lift(norm, red, s)
            assert sum(ln.orient == "H" for ln in lines) == red.p
            assert sum(ln.orient == "V" for ln in lines) == red.q
            assert verify_separation(red.points, lines) is None

    def test_lift_rejects_non_dominating(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        with pytest.raises(InvalidDominatingSet):
            lift(norm, red, ["u2", "u4"])  # v1 undominated

    def test_lift_never_returns_non_separating_lines(self):
        norm = normalize(unliftable())
        red = reduce_instance(norm)
        with pytest.raises(NotSeparating):
            lift(norm, red, ["u1_1", "u2_1"])
        lines = lift(norm, red, ["u1_1", "u2_2"])
        assert verify_separation(red.points, lines) is None

    def test_lift_verifies_with_layout_from_sidecar(self):
        # a layout read back from the sidecar is verified like a fresh one
        norm = normalize(unliftable())
        red = reduce_instance(norm)
        norm2, lay = sidecar_from_doc(sidecar_to_doc(norm))
        rebuilt = ReducedInstance(red.points, lay.p, lay.q, lay)
        with pytest.raises(NotSeparating):
            lift(norm2, rebuilt, ["u1_1", "u2_1"])

    def test_round_trip_all_valid_sets(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        valid = 0
        for pick in product(*norm.inst.classes):
            s = list(pick)
            try:
                lines = lift(norm, red, s)
            except InvalidDominatingSet:
                continue
            valid += 1
            assert extract_vertices(norm, red, lines) == s
        assert valid == 2  # {u1,u3} and {u2,u3}

    def test_extract_oracle_witness(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        lines = feasible_pq(red.points, red.p, red.q)
        assert lines is not None
        s = extract_vertices(norm, red, lines)
        assert colorful_rbds_solve(norm.inst) is not None
        chosen = set(s)
        for v in norm.inst.blues:
            assert any(u in chosen for u in norm.inst.neighbors_of_blue(v))

    def test_extract_budget_violation(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        lines = lift(norm, red, ["u1", "u3"])
        with pytest.raises(BudgetViolation):
            extract(red, lines + [AxisLine("H", lines[0].c + 1)])

    def test_extract_not_separating(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        with pytest.raises(NotSeparating):
            extract(red, [AxisLine("H", 1), AxisLine("V", 1)])

    def test_extract_no_signal(self):
        norm = normalize(toy())
        red = reduce_instance(norm)
        lines = lift(norm, red, ["u1", "u3"])
        # drop the first signal line (track 1); re-add elsewhere to keep
        # budgets full, then extraction must fail before the signal read
        lo, hi = red.layout.h_track(1)
        broken = [ln for ln in lines
                  if not (ln.orient == "H" and lo < ln.c < hi)]
        with pytest.raises((NoSignalLine, NotSeparating)):
            extract(red, broken)


def _small_instances():
    """All k=2 instances with class sizes <= 2 and <= 2 blues, deduplicated
    up to renaming, whose degree after normalization stays at d=2 (no
    pendant machinery added: uniform degree 2, distinct neighborhoods)."""
    seen = set()
    out = []
    for m1, m2, n in product((1, 2), (1, 2), (1, 2)):
        classes = [[f"u{t}" for t in range(1, m1 + 1)],
                   [f"w{t}" for t in range(1, m2 + 1)]]
        blues = [f"v{t}" for t in range(1, n + 1)]
        reds = classes[0] + classes[1]
        all_pairs = [(u, v) for u in reds for v in blues]
        for mask in range(1 << len(all_pairs)):
            edges = {all_pairs[t] for t in range(len(all_pairs))
                     if mask >> t & 1}
            degs = tuple(sorted(sum(1 for (u, v) in edges if v == b)
                                for b in blues))
            if any(dg != 2 for dg in degs):
                continue
            if normalize(CRBDS(classes, blues, edges)).d != 2:
                continue
            # canonical form up to class swap and vertex renaming
            key = _iso_key(classes, blues, edges)
            if key in seen:
                continue
            seen.add(key)
            out.append(CRBDS(classes, blues, edges))
    return out


def _iso_key(classes, blues, edges):
    best = None
    from itertools import permutations
    for cls_perm in permutations(range(len(classes))):
        cs = [classes[i] for i in cls_perm]
        for vperms in product(*(permutations(c) for c in cs)):
            for bperm in permutations(blues):
                rn = {}
                for ci, vp in enumerate(vperms):
                    for ai, u in enumerate(vp):
                        rn[u] = (ci, ai)
                for bi, v in enumerate(bperm):
                    rn[v] = ("b", bi)
                key = tuple(sorted((rn[u], rn[v]) for (u, v) in edges))
                if best is None or key < best:
                    best = key
    return best


class TestEquivalence:
    def test_exhaustive_small(self):
        insts = _small_instances()
        assert len(insts) >= 6
        for inst in insts:
            norm = normalize(inst)
            red = reduce_instance(norm)
            crbds_yes = colorful_rbds_solve(inst) is not None
            geo = feasible_pq(red.points, red.p, red.q)
            assert (geo is not None) == crbds_yes, \
                f"equivalence broken on edges={sorted(inst.edges)}"
            if geo is not None:
                s = extract_vertices(norm, red, geo)
                lines = lift(norm, red, s)
                assert verify_separation(red.points, lines) is None


def test_validate_layout_rejects_vertical_through_two_pairs():
    red = reduce_instance(normalize(toy()))
    by_role = {role[1:4]: pid for pid, role in red.layout.roles.items()
               if role[0] == "functional"}
    tr1 = red.points[by_role[(1, 1, "TR")]]
    tr2 = red.points[by_role[(1, 2, "TR")]]
    # stretch pair 1 of track 1 into pair 2's box: the vertical just right
    # of pair 2's BL point now cuts both pairs
    pts = list(red.points)
    pts[tr1.id] = replace(tr1, x=tr2.x - Fraction(1, 2))
    with pytest.raises(GuaranteeViolated, match="two functional pairs"):
        validate_layout(ReducedInstance(pts, red.p, red.q, red.layout))


def test_reduce_instance_changes_no_crbds():
    """toy() is an instance where the ordering search picks a new order:
    `reduce_instance` sets `norm.inst` to a new instance holding it and
    leaves the one it was handed as it was."""
    norm = normalize(toy())
    handed = norm.inst
    lists = {v: list(handed.neighbors_of_blue(v)) for v in handed.blues}
    reduce_instance(norm)
    assert norm.inst is not handed and norm.inst.order is not None
    assert handed.order is None
    assert {v: handed.neighbors_of_blue(v) for v in handed.blues} == lists
    assert norm.inst.order == sidecar_to_doc(norm)["normalized"]["order"]
    assert sidecar_from_doc(sidecar_to_doc(norm))[0].inst == norm.inst


def _scanned_neighbors(inst, v):
    """Reference: the explicit order if `inst` has one for `v`, else a scan
    of the classes in order for the reds adjacent to `v`."""
    if inst.order is not None and v in inst.order:
        return list(inst.order[v])
    out = []
    for cls in inst.classes:
        for u in cls:
            if (u, v) in inst.edges:
                out.append(u)
    return out


@pytest.mark.parametrize("seed", range(20))
def test_stored_neighbor_lists_match_the_scan(seed):
    rng = Random(seed)
    k, m, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 6)
    classes = [[f"u{c}_{a}" for a in range(m)] for c in range(k)]
    reds = [u for cls in classes for u in cls]
    blues = [f"v{j}" for j in range(n)]
    edges = {(u, v) for v in blues
             for u in rng.sample(reds, rng.randint(1, len(reds)))}
    plain = CRBDS(classes, blues, edges)
    full = {v: rng.sample(plain.neighbors_of_blue(v), plain.degree(v))
            for v in blues}
    partial = {v: full[v] for v in rng.sample(blues, rng.randint(1, n))}
    ordered = CRBDS(classes, blues, edges, full)
    for order in (None, full, partial):
        # built directly, and rebuilt by replace from another order
        for inst in (CRBDS(classes, blues, edges, order),
                     replace(ordered, order=order)):
            for v in blues:
                assert inst.neighbors_of_blue(v) == _scanned_neighbors(
                    inst, v)
                assert inst.degree(v) == len(_scanned_neighbors(inst, v))
