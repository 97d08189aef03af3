"""The poset of nonempty subsets of {0..n} and its nondegenerate chains.

Objects are ordered by (size, lexicographic), so for n = 2 the indexing is

    0:(0)  1:(1)  2:(2)  3:(0,1)  4:(0,2)  5:(1,2)  6:(0,1,2)

which is the coordinate order used for all bundled kernel data.  Arrows point
from smaller subsets to larger ones (the direction of the cohomology diagram
of the associated spaces); chains never repeat an object.
"""

from __future__ import annotations

from itertools import combinations


class PosetSn:
    def __init__(self, n):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        objects = []
        for size in range(1, n + 2):
            for subset in combinations(range(n + 1), size):
                objects.append(subset)
        self.objects = objects
        # 2-chains: strict containments a < b, ordered by (target, source)
        self.chains2 = sorted(
            (a, b)
            for a in range(len(objects)) for b in range(len(objects))
            if a != b and set(objects[a]) < set(objects[b]))
        self.chains2.sort(key=lambda ab: (ab[1], ab[0]))
        # 3-chains a < b < c, ordered by (c, b, a)
        self.chains3 = sorted(
            (a, b, c)
            for (a, b) in self.chains2 for (b2, c) in self.chains2
            if b == b2)
        self.chains3.sort(key=lambda abc: (abc[2], abc[1], abc[0]))

    def __len__(self):
        return len(self.objects)

    def label(self, i):
        return "(" + ",".join(str(x) for x in self.objects[i]) + ")"
