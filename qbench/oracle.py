"""Independent reference computations for checking the program's outputs.

Nothing here imports qcrystals: standard tableaux are enumerated by placing
1..m one cell at a time, semistandard ones cell by cell, counts come from
the hook-length and hook-content formulas, the crystal operators from the
bracket rule applied by deleting adjacent "()" pairs, descent classes from
a union-find over those edges, the dual equivalence involutions from the
pattern of i-1, i, i+1 in the reading word, and insertion is a separate
Schensted implementation. The benchmark compares the program against
these, never against itself. Nothing is cached at module level: callers
that repeat work pass their own table.
"""

import hashlib
from math import factorial, prod


def partitions(m, max_part=None):
    """Partitions of m as weakly decreasing tuples, largest first."""
    if max_part is None:
        max_part = m
    if m == 0:
        return [()]
    out = []
    for first in range(min(m, max_part), 0, -1):
        out.extend((first,) + rest for rest in partitions(m - first, first))
    return out


def conjugate(shape):
    return tuple(sum(1 for r in shape if r > c) for c in range(shape[0]))


def _hooks(shape):
    cols = conjugate(shape)
    return [(r - j) + (cols[j] - i) - 1 for i, r in enumerate(shape) for j in range(r)]


def syt_count(shape):
    """Number of standard tableaux, by the hook-length formula."""
    return factorial(sum(shape)) // prod(_hooks(shape))


def ssyt_count(shape, n):
    """Number of semistandard tableaux with entries <= n, by hook-content."""
    contents = [n + j - i for i, r in enumerate(shape) for j in range(r)]
    return prod(contents) // prod(_hooks(shape)) if min(contents) > 0 else 0


def standard_tableaux(shape):
    """Every standard tableau of the shape, built by adding 1..m to rows whose
    end keeps the shape a partition."""
    m = sum(shape)
    out = []
    rows = [[] for _ in shape]

    def place(k):
        if k > m:
            out.append(tuple(map(tuple, rows)))
            return
        for i in range(len(shape)):
            if len(rows[i]) < shape[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(k)
                place(k + 1)
                rows[i].pop()

    place(1)
    return out


def syt_descent_compositions(shape):
    """Descent composition of every standard tableau of the shape (a multiset)."""
    return tuple(sorted(descent_composition(T) for T in standard_tableaux(shape)))


def descent_composition(T):
    """Descent composition of one standard tableau, read from its rows."""
    row_of = {v: i for i, row in enumerate(T) for v in row}
    m = len(row_of)
    cuts = [0] + [i for i in range(1, m) if row_of[i + 1] > row_of[i]] + [m]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def max_descent_parts(shape):
    return max(len(c) for c in syt_descent_compositions(shape))


def schur_in_f(shape):
    """Fundamental expansion of one Schur function: {composition: coefficient}."""
    out = {}
    for comp in syt_descent_compositions(shape):
        out[comp] = out.get(comp, 0) + 1
    return out


def schur_combination_in_f(schur_terms, table=None):
    """Fundamental expansion of sum(c * s_shape) for (shape, c) pairs.

    table, when given, keeps each shape's expansion for later calls."""
    table = {} if table is None else table
    out = {}
    for shape, c in schur_terms:
        if shape not in table:
            table[shape] = schur_in_f(shape)
        for comp, k in table[shape].items():
            out[comp] = out.get(comp, 0) + c * k
    return {comp: k for comp, k in out.items() if k}


def format_terms(terms, basis):
    """The program's text grammar: terms by descending support, 'c*' when c != 1."""
    chunks = []
    for support in sorted(terms, reverse=True):
        body = f"{basis}[{','.join(map(str, support))}]"
        chunks.append(body if terms[support] == 1 else f"{terms[support]}*{body}")
    return " + ".join(chunks) if chunks else "0"


def insertion(word):
    """Schensted row insertion: (P, Q) as tuples of row tuples."""
    P, Q = [], []
    for step, x in enumerate(word, 1):
        r = 0
        while True:
            if r == len(P):
                P.append([x])
                Q.append([step])
                break
            row = P[r]
            j = next((j for j, y in enumerate(row) if y > x), None)
            if j is None:
                row.append(x)
                Q[r].append(step)
                break
            row[j], x = x, row[j]
            r += 1
    return tuple(map(tuple, P)), tuple(map(tuple, Q))


def is_semistandard(T, n):
    rows_ok = all(a <= b for row in T for a, b in zip(row, row[1:]))
    cols_ok = all(T[i][j] < T[i + 1][j] for i in range(len(T) - 1) for j in range(len(T[i + 1])))
    return rows_ok and cols_ok and all(1 <= v <= n for row in T for v in row)


def semistandard_tableaux(shape, n):
    """Every semistandard tableau of the shape with entries <= n, cell by cell."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    rows = [[0] * r for r in shape]
    out = []

    def fill(k):
        if k == len(cells):
            out.append(tuple(map(tuple, rows)))
            return
        i, j = cells[k]
        low = max(rows[i][j - 1] if j else 1, rows[i - 1][j] + 1 if i else 1)
        for v in range(low, n + 1):
            rows[i][j] = v
            fill(k + 1)

    fill(0)
    return out


def reading(T):
    """Rows from the bottom one up, each left to right."""
    return tuple(v for row in T[::-1] for v in row)


def from_reading(word, shape):
    """The tableau of the shape whose reading word is word."""
    rows, k = [], len(word)
    for r in shape:
        rows.append(tuple(word[k - r:k]))
        k -= r
    return tuple(rows)


def lower(word, i):
    """The crystal operator f_i on a word, or None where it is undefined.

    Each i is a ')' and each i+1 a '('; adjacent "()" pairs are deleted until
    none is left, and the rightmost ')' still standing becomes i+1."""
    brackets = [(p, ")" if x == i else "(") for p, x in enumerate(word) if x in (i, i + 1)]
    k = 0
    while k < len(brackets) - 1:
        if brackets[k][1] == "(" and brackets[k + 1][1] == ")":
            del brackets[k:k + 2]
            k = max(k - 1, 0)
        else:
            k += 1
    closes = [p for p, b in brackets if b == ")"]
    if not closes:
        return None
    return word[:closes[-1]] + (i + 1,) + word[closes[-1] + 1:]


def standardize(T):
    """Number equal entries left to right along the reading word."""
    word = reading(T)
    order = sorted(range(len(word)), key=lambda p: (word[p], p))
    labels = [0] * len(word)
    for label, p in enumerate(order, 1):
        labels[p] = label
    return from_reading(tuple(labels), tuple(map(len, T)))


def crystal(shape, n):
    """Vertices, labelled edges (T, T', i) and descent classes of the crystal.

    Each class is (composition, source, vertices, internal edges), every part
    sorted; a class is a connected set of vertices of one descent composition,
    with exactly one vertex that no internal edge enters."""
    vertices = semistandard_tableaux(shape, n)
    edges = []
    for T in vertices:
        word = reading(T)
        for i in range(1, n):
            image = lower(word, i)
            if image is not None:
                edges.append((T, from_reading(image, shape), i))
    comp = {T: descent_composition(standardize(T)) for T in vertices}
    parent = {T: T for T in vertices}

    def root(T):
        while parent[T] != T:
            parent[T] = parent[parent[T]]
            T = parent[T]
        return T

    for u, v, _ in edges:
        if comp[u] == comp[v]:
            parent[root(u)] = root(v)
    members, inner = {}, {}
    for T in vertices:
        members.setdefault(root(T), []).append(T)
    for u, v, i in edges:
        if root(u) == root(v):
            inner.setdefault(root(u), []).append((u, v, i))
    classes = []
    for r, group in members.items():
        entered = {v for _, v, _ in inner.get(r, ())}
        sources = [T for T in group if T not in entered]
        if len(sources) != 1:
            raise AssertionError(f"oracle: a class of {shape} at n={n} has {len(sources)} sources")
        classes.append((comp[r], sources[0], tuple(sorted(group)), tuple(sorted(inner.get(r, ())))))
    return sorted(vertices), sorted(edges), sorted(classes)


def skeleton(shape, n, edges, classes):
    """Vertices and edges {(S, S'): least label} of the skeleton at alphabet n.

    edges and classes are crystal(shape, n)'s. The vertices are the standard
    tableaux with at most n descent parts; a crystal edge between two classes
    joins the standardizations of their sources."""
    class_of, std = {}, []
    for k, (_, source, group, _) in enumerate(classes):
        std.append(standardize(source))
        class_of.update((T, k) for T in group)
    links = {}
    for u, v, i in edges:
        if class_of[u] != class_of[v]:
            key = (std[class_of[u]], std[class_of[v]])
            links[key] = min(i, links.get(key, i))
    vertices = sorted(T for T in standard_tableaux(shape) if len(descent_composition(T)) <= n)
    return vertices, sorted(links.items())


def dual_equivalence(shape):
    """Vertices and edges (T, T', i), T < T', of the dual equivalence graph.

    d_i looks at the reading word restricted to i-1, i, i+1: with i in the
    middle it fixes T, otherwise it swaps i with the outer letter that is
    not i."""
    vertices = sorted(standard_tableaux(shape))
    edges = set()
    for T in vertices:
        word = reading(T)
        for i in range(2, sum(shape)):
            pattern = [x for x in word if i - 1 <= x <= i + 1]
            if pattern[1] == i:
                continue
            other = next(x for x in (pattern[0], pattern[2]) if x != i)
            image = tuple(tuple({i: other, other: i}.get(x, x) for x in row) for row in T)
            edges.add(tuple(sorted((T, image))) + (i,))
    return vertices, sorted(edges)


def digest(value):
    """A short fingerprint of a structure of tuples, ints and strings."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def graph_fingerprint(vertices, edges):
    """Fingerprint of a vertex set and an edge set, whatever their order.

    A 64-bit hash: ints and tuples of ints hash alike in every process."""
    return hash((frozenset(vertices), frozenset(edges)))


def classes_fingerprint(classes):
    """Fingerprint of a set of (composition, source, vertices, edges) classes."""
    return hash(frozenset((alpha, source, frozenset(group), frozenset(edges))
                          for alpha, source, group, edges in classes))
