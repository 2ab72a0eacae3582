"""Labeled graphs of groups for rank-n GBS groups.

A graph carries one n x n integer inclusion matrix per edge end (columns are
the images of an edge-group basis); the classical labels are recovered as
absolute determinants. Elementary collapses bring a graph to reduced form,
after which the group is classified as free abelian, an ascending HNN
extension, or general.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .exact import IntMatrix, int_inverse_unimodular


@dataclass(frozen=True)
class Edge:
    id: str
    src: str                 # iota(e)
    dst: str                 # tau(e)
    incl_from: IntMatrix     # edge group into the src vertex group
    incl_to: IntMatrix       # edge group into the dst vertex group

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst

    @property
    def label_from(self) -> int:
        return abs(self.incl_from.det())

    @property
    def label_to(self) -> int:
        return abs(self.incl_to.det())


@dataclass(frozen=True)
class LabeledGraphOfGroups:
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class CollapseStep:
    edge_id: str
    merged_vertex: str
    into_vertex: str


@dataclass(frozen=True)
class Classification:
    kind: str                          # "free_abelian" | "ascending_hnn" | "general"
    phi: IntMatrix | None = None       # ascending case: the loop monomorphism
    d: int | None = None               # |det phi|
    collapse_log: tuple[CollapseStep, ...] = ()


def validate(g: LabeledGraphOfGroups) -> list[str]:
    """Structural checks; an empty list means the graph is usable."""
    errors: list[str] = []
    if g.rank < 1:
        errors.append("rank must be >= 1")
    if not g.vertices:
        errors.append("graph has no vertices")
    if len(set(g.vertices)) != len(g.vertices):
        errors.append("duplicate vertex names")
    seen_ids = set()
    for e in g.edges:
        if e.id in seen_ids:
            errors.append(f"edge {e.id}: duplicate id")
        seen_ids.add(e.id)
        if e.src not in g.vertices or e.dst not in g.vertices:
            errors.append(f"edge {e.id}: endpoint not a vertex")
            continue
        for side, m in (("incl_from", e.incl_from), ("incl_to", e.incl_to)):
            if m.nrows != g.rank or m.ncols != g.rank:
                errors.append(f"edge {e.id}: {side} is not {g.rank}x{g.rank}")
            elif m.det() == 0:
                errors.append(f"edge {e.id}: {side} is singular")
    if not errors and g.vertices:
        reached = {g.vertices[0]}
        frontier = [g.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in g.edges:
                for w in ((e.dst,) if e.src == v else ()) + ((e.src,) if e.dst == v else ()):
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
        if reached != set(g.vertices):
            errors.append("graph is disconnected")
    return errors


class GraphValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def require_valid(g: LabeledGraphOfGroups) -> None:
    errors = validate(g)
    if errors:
        raise GraphValidationError(errors)


def _collapse(g: LabeledGraphOfGroups, e: Edge) -> tuple[LabeledGraphOfGroups, CollapseStep]:
    # merge the unimodular end into the other end; the transported vertex
    # group changes coordinates by T = other_incl @ unimodular_incl^(-1)
    if e.incl_from.is_unimodular():
        gone, kept = e.src, e.dst
        t = e.incl_to @ int_inverse_unimodular(e.incl_from)
    else:
        gone, kept = e.dst, e.src
        t = e.incl_from @ int_inverse_unimodular(e.incl_to)
    edges = []
    for f in g.edges:
        if f.id == e.id:
            continue
        src, dst = f.src, f.dst
        incl_from, incl_to = f.incl_from, f.incl_to
        if src == gone:
            src = kept
            incl_from = t @ incl_from
        if dst == gone:
            dst = kept
            incl_to = t @ incl_to
        edges.append(replace(f, src=src, dst=dst, incl_from=incl_from, incl_to=incl_to))
    vertices = tuple(v for v in g.vertices if v != gone)
    return (
        LabeledGraphOfGroups(g.rank, vertices, tuple(edges)),
        CollapseStep(e.id, gone, kept),
    )


def reduce(g: LabeledGraphOfGroups) -> tuple[LabeledGraphOfGroups, tuple[CollapseStep, ...]]:
    """Iteratively collapse non-loop edges with a unimodular inclusion.

    The fundamental group is preserved; afterwards every edge with a label 1
    is a loop. Collapse order is deterministic (lowest edge id first).
    """
    require_valid(g)
    log: list[CollapseStep] = []
    while True:
        candidates = [
            e for e in g.edges
            if not e.is_loop and (e.incl_from.is_unimodular() or e.incl_to.is_unimodular())
        ]
        if not candidates:
            return g, tuple(log)
        e = min(candidates, key=lambda x: x.id)
        g, step = _collapse(g, e)
        log.append(step)


def classify(g_reduced: LabeledGraphOfGroups, collapse_log: tuple[CollapseStep, ...] = ()) -> Classification:
    """Classify a reduced graph; ascending loops are normalized so that the
    unimodular side is the inclusion being conjugated across."""
    if not g_reduced.edges:
        return Classification("free_abelian", collapse_log=collapse_log)
    if len(g_reduced.edges) == 1 and g_reduced.edges[0].is_loop:
        e = g_reduced.edges[0]
        if e.incl_from.is_unimodular():
            phi = e.incl_to @ int_inverse_unimodular(e.incl_from)
        elif e.incl_to.is_unimodular():
            phi = e.incl_from @ int_inverse_unimodular(e.incl_to)
        else:
            return Classification("general", collapse_log=collapse_log)
        return Classification("ascending_hnn", phi=phi, d=abs(phi.det()), collapse_log=collapse_log)
    return Classification("general", collapse_log=collapse_log)


# ---------------------------------------------------------------------------
# spanning trees


@dataclass(frozen=True)
class SpanningTree:
    base: str
    # for each non-base vertex: (edge, True if entered along src->dst)
    parent: dict[str, tuple[Edge, bool]]
    tree_edge_ids: frozenset[str]
    nontree_edges: tuple[Edge, ...]


def spanning_tree(g: LabeledGraphOfGroups) -> SpanningTree:
    """Deterministic BFS tree: base is the smallest vertex name and edges are
    scanned in id order."""
    base = min(g.vertices)
    parent: dict[str, tuple[Edge, bool]] = {}
    visited = {base}
    queue = [base]
    edges_sorted = sorted(g.edges, key=lambda e: e.id)
    tree_ids = set()
    while queue:
        v = queue.pop(0)
        for e in edges_sorted:
            if e.src == v and e.dst not in visited:
                visited.add(e.dst)
                parent[e.dst] = (e, True)
                tree_ids.add(e.id)
                queue.append(e.dst)
            if e.dst == v and e.src not in visited:
                visited.add(e.src)
                parent[e.src] = (e, False)
                tree_ids.add(e.id)
                queue.append(e.src)
    nontree = tuple(e for e in edges_sorted if e.id not in tree_ids)
    return SpanningTree(base, parent, frozenset(tree_ids), nontree)

