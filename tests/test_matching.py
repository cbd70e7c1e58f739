import itertools
import random

import pytest

from sepline.errors import HasIsolatedVertex
from sepline.matching import maximum_matching, minimum_edge_cover


def brute_max_matching_size(n, edges):
    """Exhaustive maximum matching size; the independent oracle."""
    best = 0
    edges = list(edges)
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(edges, k):
            used = set()
            ok = True
            for (u, v) in combo:
                if u in used or v in used:
                    ok = False
                    break
                used.add(u)
                used.add(v)
            if ok:
                best = max(best, k)
                break
    return best


def is_matching(pairs):
    used = set()
    for (u, v) in pairs:
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def covers_all(n, pairs):
    covered = set()
    for (u, v) in pairs:
        covered.add(u)
        covered.add(v)
    return covered == set(range(n))


def test_path3():
    assert len(maximum_matching(3, [(0, 1), (1, 2)])) == 1
    assert len(minimum_edge_cover(3, [(0, 1), (1, 2)])) == 2


def test_cycle4():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert len(maximum_matching(4, edges)) == 2
    assert len(minimum_edge_cover(4, edges)) == 2


def test_cycle5():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    # frozen from brute_max_matching_size: 2
    assert brute_max_matching_size(5, edges) == 2
    assert len(maximum_matching(5, edges)) == 2


def test_triangle_cover():
    edges = [(0, 1), (1, 2), (2, 0)]
    assert len(minimum_edge_cover(3, edges)) == 2


@pytest.mark.parametrize("edges,message", [
    ([(0, 1), (1, 3)], "edge (1, 3) references an invalid vertex"),
    ([(-1, 0)], "edge (-1, 0) references an invalid vertex"),
    ([(0, 1), (2, 2)], "self-loop at 2")],
    ids=["past-n", "negative", "self-loop"])
def test_bad_edge_rejected(edges, message):
    with pytest.raises(ValueError) as exc:
        maximum_matching(3, edges)
    assert str(exc.value) == message


def test_isolated_vertex_rejected():
    with pytest.raises(HasIsolatedVertex):
        minimum_edge_cover(3, [(0, 1)])


def test_petersen_graph():
    # 3-regular, famously non-bipartite; has a perfect matching
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    edges = outer + inner + spokes
    assert len(maximum_matching(10, edges)) == 5


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    all_edges = list(itertools.combinations(range(n), 2))
    edges = [e for e in all_edges if rng.random() < 0.4]
    mm = maximum_matching(n, edges)
    assert is_matching(mm)
    assert set(map(tuple, mm)) <= {tuple(e) for e in edges}
    assert len(mm) == brute_max_matching_size(n, edges)


@pytest.mark.parametrize("seed", range(40))
def test_gallai_identity(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 9)
    all_edges = list(itertools.combinations(range(n), 2))
    edges = [e for e in all_edges if rng.random() < 0.5]
    touched = {v for e in edges for v in e}
    if touched != set(range(n)):
        with pytest.raises(HasIsolatedVertex):
            minimum_edge_cover(n, edges)
        return
    cover = minimum_edge_cover(n, edges)
    assert covers_all(n, cover)
    assert len(cover) == n - len(maximum_matching(n, edges))


def test_deterministic_output():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    runs = {tuple(maximum_matching(4, edges)) for _ in range(5)}
    assert len(runs) == 1


def _reference_matching(n, adj):
    """Edmonds' search with fresh O(n) state per root and a full scan per
    blossom; the matching `maximum_matching` must reproduce pair for pair."""
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a, b):
        used = [False] * n
        x = a
        while True:
            x = base[x]
            used[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if used[y]:
                return y
            y = parent[match[y]]

    def mark_path(x, b, child, blossom):
        while base[x] != b:
            blossom[base[x]] = True
            blossom[base[match[x]]] = True
            parent[x] = child
            child = match[x]
            x = parent[match[x]]

    def find_path(root):
        nonlocal parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    b = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = b
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return sorted((v, match[v]) for v in range(n) if match[v] > v)


def _seeded_graphs(count):
    """Sparse to moderately dense random graphs, several components each,
    with shuffled edge lists."""
    rng = random.Random(20)
    for _ in range(count):
        n = rng.randint(1, 60)
        p = rng.choice([0.03, 0.08, 0.15, 0.3])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        rng.shuffle(edges)
        yield n, [(v, u) if rng.random() < 0.5 else (u, v)
                  for u, v in edges]


def test_matching_equals_reference_pairs():
    for n, edges in _seeded_graphs(600):
        adj = [sorted({v for e in edges if u in e for v in e if v != u})
               for u in range(n)]
        assert maximum_matching(n, edges) == _reference_matching(n, adj)


def test_matching_size_equals_networkx():
    nx = pytest.importorskip("networkx")
    for n, edges in _seeded_graphs(300):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        expected = len(nx.max_weight_matching(g, maxcardinality=True))
        assert len(maximum_matching(n, edges)) == expected
