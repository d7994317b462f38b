"""Even orientations of multigraphs.

An orientation is *even* when every vertex has even indegree.  A connected
multigraph admits one iff its edge count is even; for trees the even
orientation is unique and follows a subtree-parity rule.  These facts drive
the per-cell assembly of matchings: each dual-graph edge oriented into a
cell hands that cell one matching vertex, and even indegrees give every cell
an even point count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .errors import GeomatchError, InvariantViolation, OddComponentInPart


class Multigraph:
    """Undirected multigraph: ``n`` vertices 0..n-1, edges indexed by position.

    Parallel edges are allowed, loops are not.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        es = []
        for u, v in edges:
            if u == v:
                raise GeomatchError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GeomatchError(f"edge ({u},{v}) outside vertex range")
            es.append((u, v))
        self.edges = tuple(es)
        self._adj: Optional[list[list[tuple[int, int]]]] = None

    def __repr__(self):
        return f"Multigraph({self.n} vertices, {len(self.edges)} edges)"

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex: list of (edge id, other endpoint), sorted by edge id.

        Built on the first call; every later call returns the same lists,
        which callers read and never change.
        """
        adj = self._adj
        if adj is None:
            adj = self._adj = [[] for _ in range(self.n)]
            for eid, (u, v) in enumerate(self.edges):
                adj[u].append((eid, v))
                adj[v].append((eid, u))
        return adj


def components(g: Multigraph) -> list[tuple[list[int], list[int]]]:
    """Connected components as (sorted vertex ids, sorted edge ids)."""
    adj = g.adjacency()
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        verts = [start]
        while stack:
            v = stack.pop()
            for _, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    stack.append(w)
        vset = set(verts)
        eids = [eid for eid, (u, v) in enumerate(g.edges) if u in vset]
        out.append((sorted(verts), eids))
    return out


@dataclass(frozen=True)
class EvenOrientation:
    """An orientation given by the head vertex of every edge."""

    graph: Multigraph
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.heads) != len(self.graph.edges):
            raise GeomatchError("one head per edge required")
        for eid, h in enumerate(self.heads):
            if h not in self.graph.edges[eid]:
                raise GeomatchError(f"head {h} is not an endpoint of edge {eid}")


def even_orientation(g: Multigraph) -> Optional[EvenOrientation]:
    """An orientation with all indegrees even, or None if impossible.

    Exists iff every connected component has an even number of edges.  One
    breadth-first search per component, rooted at its smallest vertex and
    walking the adjacency in edge-id order, finds its spanning tree and its
    edge count and orients every non-tree edge toward its stored second
    endpoint; the tree edges are then fixed from the leaves inward so each
    non-root vertex ends even, and the root is forced even by the parity of
    the count.
    """
    edges = g.edges
    heads: list[Optional[int]] = [None] * len(edges)
    is_tree = [False] * len(edges)
    adj = g.adjacency()
    seen = [False] * g.n
    parity = [0] * g.n
    parent_edge = [0] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        non_tree = 0
        for v in order:
            for eid, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w] = eid
                    is_tree[eid] = True
                    order.append(w)
                elif not is_tree[eid] and heads[eid] is None:
                    h = heads[eid] = edges[eid][1]
                    parity[h] ^= 1
                    non_tree += 1
        if (len(order) - 1 + non_tree) % 2 == 1:
            return None
        for v in reversed(order[1:]):
            eid = parent_edge[v]
            u, w = edges[eid]
            if parity[v]:
                heads[eid] = v
                parity[v] ^= 1
            else:
                other = w if v == u else u
                heads[eid] = other
                parity[other] ^= 1
        if parity[root]:
            raise InvariantViolation("root parity odd in an even component")
    return EvenOrientation(g, tuple(heads))


EdgePartition = dict[int, Hashable]


def orientation_from_partition(g: Multigraph, partition: EdgePartition) -> EvenOrientation:
    """Orient each part independently so that all indegrees are even.

    ``partition`` maps every edge id to a part label.  Each part, as a
    subgraph on the full vertex set, must have only even components; a part
    with an odd component raises OddComponentInPart.  Because parts are
    oriented separately, a vertex of indegree two in the result received
    both of its in-edges from the same part.  A public front: no
    construction calls it, they orient each part with :func:`even_orientation`.
    """
    if set(partition) != set(range(len(g.edges))):
        raise GeomatchError("partition must label every edge id exactly once")
    heads: list[Optional[int]] = [None] * len(g.edges)
    labels = sorted(set(partition.values()), key=repr)
    for label in labels:
        eids = [eid for eid in range(len(g.edges)) if partition[eid] == label]
        sub = Multigraph(g.n, [g.edges[eid] for eid in eids])
        res = even_orientation(sub)
        if res is None:
            for verts, sub_eids in components(sub):
                if len(sub_eids) % 2 == 1:
                    involved = {v for eid in sub_eids for v in sub.edges[eid]}
                    raise OddComponentInPart(label, involved)
            raise InvariantViolation("even_orientation failed on even components")
        for sub_eid, head in zip(eids, res.heads):
            heads[sub_eid] = head
    return EvenOrientation(g, tuple(heads))


def prune_odd_components(g: Multigraph):
    """Remove one edge from every odd component, making all components even.

    From each odd component, remove a leaf edge when the component has a
    vertex of degree one (the smallest such edge id); otherwise remove the
    smallest edge id on the first cycle found by traversal from the
    component's smallest vertex.  Returns ``(pruned, removed_ids)`` where
    ``pruned`` reuses the original vertex numbering and keeps the surviving
    edges in their original order.
    """
    removed: list[int] = []
    adj = g.adjacency()
    for verts, eids in components(g):
        if len(eids) % 2 == 0:
            continue
        deg: dict[int, int] = {v: 0 for v in verts}
        for eid in eids:
            u, v = g.edges[eid]
            deg[u] += 1
            deg[v] += 1
        leaf_edges = [
            eid for eid in eids if deg[g.edges[eid][0]] == 1 or deg[g.edges[eid][1]] == 1
        ]
        if leaf_edges:
            removed.append(min(leaf_edges))
            continue
        # every vertex has degree >= 2: find a cycle by DFS from min vertex
        start = verts[0]
        path: list[tuple[int, int]] = [(start, -1)]  # (vertex, incoming edge id)
        on_path = {start}
        finished: set[int] = set()
        iters = [iter(adj[start])]
        cycle_edges: Optional[list[int]] = None
        while iters and cycle_edges is None:
            v, in_eid = path[-1]
            for eid, w in iters[-1]:
                if eid == in_eid:
                    continue
                if w in on_path:
                    # back edge: close the cycle along the current path
                    cyc = [eid]
                    for pv, pe in reversed(path):
                        if pv == w:
                            break
                        cyc.append(pe)
                    cycle_edges = cyc
                    break
                if w in finished:
                    continue
                path.append((w, eid))
                on_path.add(w)
                iters.append(iter(adj[w]))
                break
            else:
                pv, _ = path.pop()
                on_path.discard(pv)
                finished.add(pv)
                iters.pop()
        if cycle_edges is None:
            raise InvariantViolation("component without leaves must contain a cycle")
        removed.append(min(cycle_edges))
    removed_set = set(removed)
    kept = [eid for eid in range(len(g.edges)) if eid not in removed_set]
    pruned = Multigraph(g.n, [g.edges[eid] for eid in kept])
    return pruned, sorted(removed)
