"""DOT and JSON serialization for graphs, tableaux, and expansions.

All output is deterministic for a fixed input: vertex order is the canonical
generation order, colors are content-addressed, and no timestamps are
emitted.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .errors import InvalidParameters
from .tableaux import Tableau, from_rows, is_semistandard

if TYPE_CHECKING:  # annotations only: loading these would cost every render
    from .crystal import CrystalGraph
    from .decomposition import Subcomponent
    from .skeleton import DualEquivalenceGraph, SkeletonGraph


def tableau_to_json(T: Tableau) -> str:
    return json.dumps(T)


def tableau_from_json(text: str) -> Tableau:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise InvalidParameters("tableau JSON must be an array of arrays")
    T = from_rows(data)
    if not is_semistandard(T):
        raise InvalidParameters(f"not a semistandard tableau: {data}")
    return T


def _vertex_label(vertex, kind: str) -> str:
    if kind == "word":
        return "".join(str(v) for v in vertex)
    return json.dumps(vertex)


def composition_color(alpha) -> str:
    """Stable hex color; a composition and its reverse share the same color."""
    import hashlib  # only here: most renders never color a vertex
    key = min(tuple(alpha), tuple(reversed(alpha)))
    digest = hashlib.sha256(repr(key).encode()).digest()
    # keep it light so black labels stay readable
    r, g, b = (128 + digest[0] // 2, 128 + digest[1] // 2, 128 + digest[2] // 2)
    return f"#{r:02x}{g:02x}{b:02x}"


def crystal_to_json(G: CrystalGraph) -> str:
    payload = {"vertices": G.vertices, "edges": G.edges, "source": G.source,
               "max_entry": G.max_entry}
    return json.dumps(payload)


def _to_dot(header, vertices, kind, arrow, edges, fill) -> str:
    """DOT text: the header lines, a line per vertex, filled where fill maps
    its index to a color, and a line per edge of vertex indices."""
    lines = list(header)
    for k, vertex in enumerate(vertices):
        label = _vertex_label(vertex, kind).replace('"', '\\"')
        extra = f', style=filled, fillcolor="{fill[k]}"' if k in fill else ""
        lines.append(f'  v{k} [label="{label}"{extra}];')
    for u, v, i in edges:
        lines.append(f'  v{u} {arrow} v{v} [label={i}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def crystal_to_dot(G: CrystalGraph, subcomponents: list[Subcomponent] | None = None) -> str:
    """DOT rendering; with subcomponents, vertices are colored by class type."""
    fill = {}
    for sub in subcomponents or ():
        fill.update(dict.fromkeys(sub.vertex_indices, composition_color(sub.alpha)))
    return _to_dot(("digraph crystal {", "  rankdir=TB;"), G.vertices, G.kind, "->",
                   G.edges, fill)


def _indexed_edges(vertices, edges) -> list[tuple[int, int, int]]:
    """Edges (u, v, label) on the given vertices as sorted index triples."""
    index = {T: k for k, T in enumerate(vertices)}
    return sorted((index[u], index[v], label) for u, v, label in edges)


def _skeleton_edges(skel: SkeletonGraph):
    return ((u, v, label) for (u, v), label in skel.edges.items())


def skeleton_to_dot(skel: SkeletonGraph) -> str:
    return _to_dot(("digraph skeleton {", "  rankdir=TB;"), skel.vertices, "tableau", "->",
                   _indexed_edges(skel.vertices, _skeleton_edges(skel)), {})


def skeleton_to_json(skel: SkeletonGraph) -> str:
    payload = {
        "shape": skel.shape,
        "max_entry": skel.max_entry,
        "stable_bound": skel.stable_bound,
        "vertices": skel.vertices,
        "edges": _indexed_edges(skel.vertices, _skeleton_edges(skel)),
    }
    return json.dumps(payload)


def dual_equivalence_to_dot(g: DualEquivalenceGraph) -> str:
    return _to_dot(("graph dual_equivalence {",), g.vertices, "tableau", "--",
                   _indexed_edges(g.vertices, g.edges), {})


def dual_equivalence_to_json(g: DualEquivalenceGraph) -> str:
    payload = {
        "shape": g.shape,
        "vertices": g.vertices,
        "edges": _indexed_edges(g.vertices, g.edges),
    }
    return json.dumps(payload)
