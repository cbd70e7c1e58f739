"""Maximum matching on general graphs and minimum edge cover.

Edmonds' blossom-contraction algorithm over adjacency arrays.  Output is
deterministic for a fixed vertex count and edge ordering: vertices are
scanned in index order and blossoms are handled via base pointers.
"""

from __future__ import annotations

from .errors import HasIsolatedVertex


def _adjacency(n, edges) -> list[list[int]]:
    """Sorted, duplicate-free neighbour lists of a simple graph on 0..n-1."""
    adj = [set() for _ in range(n)]
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references an invalid vertex")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(nbrs) for nbrs in adj]


def maximum_matching(n: int, edges) -> list[tuple[int, int]]:
    """A maximum-cardinality matching, as a sorted list of vertex pairs."""
    return _maximum_matching(n, _adjacency(n, edges))


def _maximum_matching(n: int, adj) -> list[tuple[int, int]]:
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a, b):
        seen = set()
        x = a
        while True:
            x = base[x]
            seen.add(x)
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if y in seen:
                return y
            y = parent[match[y]]

    def mark_path(x, b, child, blossom):
        while base[x] != b:
            blossom.add(base[x])
            blossom.add(base[match[x]])
            parent[x] = child
            child = match[x]
            x = parent[match[x]]

    tree: list[int] = []  # the vertices the last search touched

    def find_path(root):
        """One alternating-tree search from `root`.  It first resets the
        entries of the previous search's tree, the only ones that search
        changed.  A blossom relabels the tree's vertices in index order,
        so the queue grows as under a scan over all vertices."""
        for i in tree:
            used[i] = False
            parent[i] = -1
            base[i] = i
        tree[:] = [root]
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
                    # odd cycle: contract the blossom
                    b = lca(v, to)
                    blossom = set()
                    mark_path(v, b, to, blossom)
                    mark_path(to, b, v, blossom)
                    tree.sort()
                    for i in tree:
                        if base[i] in blossom:
                            base[i] = b
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        # augmenting path found: flip it
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    tree.append(match[to])
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)

    return sorted((v, match[v]) for v in range(n) if match[v] > v)


def minimum_edge_cover(n: int, edges) -> list[tuple[int, int]]:
    """Minimum edge cover: a maximum matching greedily extended to uncovered
    vertices.  Size is always n - |maximum matching|."""
    adj = _adjacency(n, edges)
    for v in range(n):
        if not adj[v]:
            raise HasIsolatedVertex(v)
    mm = _maximum_matching(n, adj)
    covered = set()
    for (u, v) in mm:
        covered.add(u)
        covered.add(v)
    cover = list(mm)
    for v in range(n):
        if v not in covered:
            u = adj[v][0]
            cover.append((min(u, v), max(u, v)))
            covered.add(v)
    return sorted(cover)
