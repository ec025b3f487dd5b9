"""Size guards for generators and enumerations.

Every guard fails fast, before any large allocation, and reports the
computed size estimate.  Every limit is a constant.
"""

# Vertex limit of trees. The tree identities build the n x n distance
# matrix and take its determinant by Bareiss elimination, O(n^3) steps
# on integers of O(n) bits; `tree --n 300` takes about 4 s.
TREE_VERTICES = 300

# Element limit of posets read from JSON. It bounds elements, not bytes:
# the up- and down-set masks take up to n^2/8 bytes each, and `mu` on
# antichains of 10^4 and 4*10^4 elements peaked at 32 and 237 MB, so
# 10^5 elements come near 1.4 GB. 10^5 is the largest family `gen` emits
# (subspace and contraction lattices), so every `gen` output loads.
POSET_ELEMENTS = 10 ** 5


class SizeGuardError(ValueError):
    def __init__(self, what, estimate, limit):
        super().__init__(
            f"{what}: estimated size {estimate} exceeds limit {limit}")
        self.estimate = estimate
        self.limit = limit


def check_size(what, estimate, limit):
    if estimate > limit:
        raise SizeGuardError(what, estimate, limit)
