"""Distance matrices of trees in exact arithmetic: the zeta
factorization D = Z^T H Z, the shape-independent determinant, and the
closed-form inverses, checked in integers after scaling by 2n - 2."""

from operator import mul

from .exactmat import bareiss_det
from .guards import TREE_VERTICES, check_size


class RootedTree:
    """Tree given by a parent array, with vertices reindexed root-first
    by breadth-first search (children visited in label order)."""

    def __init__(self, n, root, parent):
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        check_size("tree", n, TREE_VERTICES)
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        if len(parent) != n or parent[root] is not None:
            raise ValueError("parent array must have length n with None "
                             "at the root")
        children = [[] for _ in range(n)]
        for v in range(n):
            if v == root:
                continue
            p = parent[v]
            if p is None or not 0 <= p < n or p == v:
                raise ValueError(f"bad parent {p} for vertex {v}")
            children[p].append(v)
        order = [root]
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for c in sorted(children[v]):
                    order.append(c)
                    nxt.append(c)
            queue = nxt
        if len(order) != n:
            raise ValueError("parent structure is cyclic or disconnected")
        self.n = n
        self.root = root
        pos = {v: i for i, v in enumerate(order)}
        self.parent_pos = [None] * n
        for v in range(n):
            if v != root:
                self.parent_pos[pos[v]] = pos[parent[v]]

    @classmethod
    def from_graph(cls, graph, root=0):
        if len(graph.edges) != graph.n - 1 or not graph.is_connected():
            raise ValueError("graph is not a tree")
        adj = graph.adjacency()
        parent = [None] * graph.n
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
        return cls(graph.n, root, parent)


def distance_matrix(T):
    """D[u][v] = number of edges on the path between u and v.  No vertex
    before v in the breadth-first order lies below v, so for u < v the
    path runs through v's parent: D[v][u] = D[parent(v)][u] + 1."""
    n = T.n
    D = [[0] * n for _ in range(n)]
    for v in range(1, n):
        row, above = D[v], D[T.parent_pos[v]]
        for u in range(v):
            row[u] = D[u][v] = above[u] + 1
    return D


def _zeta_congruence(T, M):
    """Z^T M Z for the tree's zeta matrix Z, in O(n^2) from the parent
    links: Z[u][v] = 1 iff u is an ancestor of v, so column v of M Z is
    column parent(v) of M Z plus column v of M, and row v of Z^T (M Z) is
    row parent(v) plus row v of M Z. The breadth-first order puts every
    parent before its children."""
    par = T.parent_pos
    MZ = []
    for row in M:
        out = row[:]
        for v in range(1, T.n):
            out[v] += out[par[v]]
        MZ.append(out)
    for v in range(1, T.n):
        MZ[v] = [a + b for a, b in zip(MZ[par[v]], MZ[v])]
    return MZ


def _h_matrix(n):
    H = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            H[i][j] = (1 if i == 0 else 0) + (1 if j == 0 else 0)
            if i == j:
                H[i][j] -= 2
    return H


# The closed-form inverses are scaled by K = 2n - 2, which clears every
# denominator, and checked as integer identities H S_H = K I and
# D S_D = K I on every entry, through the structure of H and of the
# tree's Laplacian instead of a dense product.

def scaled_h_inverse(n):
    """S_H = (2n-2) H^{-1} (first index is the root): 4 in the corner, 2
    on the rest of the first row and column, 1 - (n-1)[i=j] elsewhere."""
    if n < 2:
        raise ValueError("H is invertible only for n >= 2")
    S = [[1 - (n - 1) * (i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        S[0][i] = S[i][0] = 2
    S[0][0] = 4
    return S


def h_inverse_ok(S):
    """True iff H S = (2n-2) I on every entry, in O(n^2): H = 1 e1^T +
    e1 1^T - 2I, so row i of H S is S[0] + [i=0] colsum(S) - 2 S[i]."""
    K = 2 * len(S) - 2
    for i, Si in enumerate(S):
        row = [t - 2 * s for t, s in zip(S[0], Si)]
        if i == 0:
            row = [x + sum(col) for x, col in zip(row, zip(*S))]
        row[i] -= K
        if any(row):
            return False
    return True


def _neighbours(T):
    nbrs = [[] for _ in range(T.n)]
    for v in range(1, T.n):
        p = T.parent_pos[v]
        nbrs[v].append(p)
        nbrs[p].append(v)
    return nbrs


def scaled_distance_inverse(T):
    """S_D = (2n-2) D^{-1} = beta beta^T - (n-1)(Delta - A), with Delta
    the valencies, A the adjacency and beta = (2I - Delta) 1."""
    n = T.n
    if n < 2:
        raise ValueError("inverse formula needs n >= 2")
    nbrs = _neighbours(T)
    beta = [2 - len(a) for a in nbrs]
    S = [[bi * bj for bj in beta] for bi in beta]
    for i, a in enumerate(nbrs):
        S[i][i] -= (n - 1) * len(a)
        for k in a:
            S[i][k] += n - 1
    return S


def distance_inverse_ok(T, D, S):
    """True iff D S = (2n-2) I on every entry. With R = beta beta^T - S,
    row i of D S is (D_i . beta) beta^T - D_i R, and D_i R is summed over
    the nonzero entries of R only. For the closed form R is (n-1) times
    the Laplacian Delta - A, with 3n - 2 nonzeros, so the check costs
    O(n^2). Any other S is still checked exactly, at a cost that grows
    with the number of its entries that differ from beta beta^T."""
    K = 2 * T.n - 2
    beta = [2 - len(a) for a in _neighbours(T)]
    R = []
    for k, (bk, Sk) in enumerate(zip(beta, S)):
        for j, (bj, s) in enumerate(zip(beta, Sk)):
            if bk * bj != s:
                R.append((k, j, bk * bj - s))
    for i, Di in enumerate(D):
        c = sum(map(mul, Di, beta))
        row = [c * b for b in beta]
        for k, j, r in R:
            row[j] -= Di[k] * r
        row[i] -= K
        if any(row):
            return False
    return True


def verify_tree(T):
    """Every identity of this module on T, from one distance matrix: the
    factorization D = Z^T H Z, det D against the Graham-Pollak closed
    form, and both closed-form inverses. det, closed_form and
    inverse_verified are None on a single vertex."""
    D = distance_matrix(T)
    factor = D == _zeta_congruence(T, _h_matrix(T.n))
    if T.n < 2:
        return {"identity": "tree distance identities", "det": None,
                "closed_form": None, "inverse_verified": None,
                "pass": factor}
    det = bareiss_det(D)
    closed = (T.n - 1) * (-1) ** (T.n - 1) * 2 ** (T.n - 2)
    inverse = (h_inverse_ok(scaled_h_inverse(T.n))
               and distance_inverse_ok(T, D, scaled_distance_inverse(T)))
    return {"identity": "tree distance identities", "det": det,
            "closed_form": closed, "inverse_verified": inverse,
            "pass": factor and det == closed and inverse}
