"""Machine-speed calibration kernel.

On a shared machine the speed available to one process drifts by tens of
percent within minutes, far more than the changes the benchmark must
resolve.  The kernel below does the kinds of work anisomesh does, in code
it does not share, so no change to the package can change its time:
small-array numpy arithmetic, heap pushes and float formatting, plus
allocation of many small objects, dict inserts and a sweep over an array
larger than the caches.  The benchmark runs it beside every op and reports
times scaled to the speed at which one pass takes ``REFERENCE_S``.
"""
import heapq
import time

import numpy as np

# Median time of one pass on the 2-vCPU Xeon KVM guest (2.1 GHz, Python
# 3.11, numpy 2.4) where the benchmark was defined.
REFERENCE_S = 0.05

_NODES = np.linspace(0.05, 0.9, 48).reshape(16, 3)


class _Node:
    __slots__ = ("verts", "step", "slot")

    def __init__(self, verts, step, slot):
        self.verts, self.step, self.slot = verts, step, slot


def calibrate(reps: int = 1000) -> float:
    """Seconds for one pass of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    heap, lines, nodes, index = [], [], [], {}
    for i in range(reps):
        v = np.array([(0.0, 0.0), (1.0, 0.1 * (i % 7)), (0.2, 1.0)])
        e = v[[2, 0, 1]] - v[[1, 2, 0]]
        xy = _NODES @ v
        g = np.exp(xy[:, 0] * xy[:, 0] - 2.0 * xy[:, 1] * xy[:, 1])
        acc += float((np.abs(g - g.mean()) ** 2).sum())
        acc += float(np.sqrt((e * e).sum(axis=1).max()))
        heapq.heappush(heap, (-acc, i))
        lines.append(f"v {acc:.17g} {i}")
        for j in range(14):
            nodes.append(_Node(v, i, j))
            index[(i, j)] = len(nodes)
    acc += sum(n.step for n in nodes[::7])
    acc += float(np.linspace(0.0, 1.0, 1_000_000)[::3].sum())
    lines += [f"t {n.step} {n.slot} {acc:.17g}" for n in nodes[::10]]
    return time.perf_counter() - t0
