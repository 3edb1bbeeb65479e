"""Independent answer oracles, written against the curves alone.

None of these call the library's solvers: each recomputes the optimum of
the allocation problem from the fitted curves ``T(n) = a/n + b n^c + d``
with numpy, so a wrong answer from any solver layer shows as a mismatch.

* :func:`cesm_optimum` — CESM layout 1 (``max(max(ice, lnd) + atm, ocn)``)
  by enumerating the atmosphere count and solving the ice/land split and
  the ocean pick exactly with prefix minima;
* :func:`minmax_optimum` — the min-max split ``sum n_j <= N`` by bisection
  on the makespan over every value the curves take (FMO);
* :func:`brute_force_minmax` — the same problem by exhaustive search over
  every split of a small budget (the 3-component service requests).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

#: Relative tolerance between a solver's makespan and the oracle's.  The
#: solvers stop at a 1e-7 relative gap; the rest is NLP round-off.
REL_TOL = 1e-6


def curve(params, n: np.ndarray) -> np.ndarray:
    """``a/n + b n^c + d`` for a model with those four attributes."""
    n = np.asarray(n, dtype=float)
    return params.a / n + params.b * n**params.c + params.d


def _prefix_min(values: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(values)


def _close(value: float, optimum: float) -> bool:
    return abs(value - optimum) <= REL_TOL * max(1.0, abs(optimum))


# -- CESM layout 1 -------------------------------------------------------------


def cesm_optimum(
    models: Mapping[str, object],
    total_nodes: int,
    *,
    atm_allowed: Sequence[int],
    ocn_allowed: Sequence[int] | None,
    min_nodes: Mapping[str, int],
) -> float:
    """Exact optimum of the layout-1 makespan over the admissible counts.

    ``ocn_allowed=None`` means any integer from the ocean minimum up.  For a
    fixed atmosphere count ``na`` the best ice/land split minimizes
    ``max(PI[k], PL[na - k])`` over ``k`` with the prefix minima ``PI``,
    ``PL`` — a nonincreasing against a nondecreasing sequence — so a
    vectorized binary search finds the crossing for every ``na`` at once.
    """
    N = int(total_nodes)
    n = np.arange(N + 1, dtype=float)
    n[0] = 1.0  # index 0 is never a valid count; keep the curves finite

    def prefix(name: str, allowed: np.ndarray | None = None) -> np.ndarray:
        times = curve(models[name], n)
        mask = np.zeros(N + 1, dtype=bool)
        if allowed is None:
            mask[int(min_nodes.get(name, 1)) :] = True
        else:
            mask[allowed[allowed <= N]] = True
        return _prefix_min(np.where(mask, times, np.inf))

    PI = prefix("ice")
    PL = prefix("lnd")
    PO = prefix(
        "ocn", None if ocn_allowed is None else np.asarray(ocn_allowed, dtype=int)
    )
    atm = np.asarray([v for v in atm_allowed if v <= N], dtype=int)
    lo_i, lo_l = int(min_nodes.get("ice", 1)), int(min_nodes.get("lnd", 1))
    atm = atm[(atm >= lo_i + lo_l) & (atm < N)]
    atm = atm[np.isfinite(PO[N - atm])]
    if atm.size == 0:
        raise ValueError("no admissible CESM allocation")
    # Smallest k in [lo_i, na - lo_l] with PI[k] <= PL[na - k].
    lo = np.full(atm.shape, lo_i)
    hi = atm - lo_l
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        active = lo < hi
        below = PI[mid] <= PL[atm - mid]
        hi = np.where(active & below, mid, hi)
        lo = np.where(active & ~below, mid + 1, lo)
    split = np.maximum(PI[lo], PL[atm - lo])
    left = np.maximum(lo - 1, lo_i)
    split = np.minimum(split, np.maximum(PI[left], PL[atm - left]))
    total = np.maximum(split + curve(models["atm"], atm), PO[N - atm])
    return float(total.min())


def layout1_makespan(models: Mapping[str, object], alloc: Mapping[str, int]) -> float:
    """Layout-1 makespan of an allocation under the fitted curves."""
    t = {c: float(curve(models[c], np.asarray(alloc[c]))) for c in alloc}
    return max(max(t["ice"], t["lnd"]) + t["atm"], t["ocn"])


def check_cesm(
    models: Mapping[str, object],
    alloc: Mapping[str, int],
    predicted_total: float,
    total_nodes: int,
    *,
    atm_allowed: Sequence[int],
    ocn_allowed: Sequence[int] | None,
    min_nodes: Mapping[str, int],
) -> str | None:
    """``None`` when the allocation is feasible and optimal, else why not."""
    N = int(total_nodes)
    if alloc["atm"] + alloc["ocn"] > N:
        return f"atm+ocn = {alloc['atm'] + alloc['ocn']} exceeds {N} nodes"
    if alloc["ice"] + alloc["lnd"] > alloc["atm"]:
        return "ice+lnd exceed the atmosphere's nodes"
    if alloc["atm"] not in set(atm_allowed):
        return f"atm count {alloc['atm']} is not admissible"
    if ocn_allowed is not None and alloc["ocn"] not in set(ocn_allowed):
        return f"ocn count {alloc['ocn']} is not admissible"
    for name, count in alloc.items():
        if count < int(min_nodes.get(name, 1)):
            return f"{name} gets {count} nodes, below its minimum"
    makespan = layout1_makespan(models, alloc)
    if not _close(makespan, predicted_total):
        return (
            f"predicted total {predicted_total:.9g} does not match the "
            f"allocation's makespan {makespan:.9g}"
        )
    optimum = cesm_optimum(
        models,
        N,
        atm_allowed=atm_allowed,
        ocn_allowed=ocn_allowed,
        min_nodes=min_nodes,
    )
    if not _close(makespan, optimum):
        return f"makespan {makespan:.9g} is not the optimum {optimum:.9g}"
    return None


# -- min-max with one budget row (FMO, service) ----------------------------------


def minmax_optimum(models: Sequence[object], total_nodes: int) -> float:
    """Exact ``min max_j T_j(n_j)`` s.t. ``sum n_j <= N``, ``n_j >= 1``.

    The optimum is one of the values the prefix-minimum curves take; the
    smallest feasible one is found by bisection over their sorted union.
    A makespan ``T`` is feasible when the fewest nodes reaching ``T`` on
    every component sum to at most ``N``.
    """
    N = int(total_nodes)
    n = np.arange(1, N + 1, dtype=float)
    prefix = [_prefix_min(curve(m, n)) for m in models]
    # Nonincreasing -> ascending by reversal, for searchsorted.
    rising = [p[::-1] for p in prefix]

    def need(T: float) -> int:
        # Fewest nodes with prefix-min <= T (inf when unreachable).
        total = 0
        for r in rising:
            reach = N - int(np.searchsorted(r, T, side="right"))
            if reach >= N:
                return N + 1
            total += reach + 1
        return total

    candidates = np.unique(np.concatenate(prefix))
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if need(float(candidates[mid])) <= N:
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


def brute_force_minmax(models: Sequence[object], total_nodes: int) -> float:
    """Exhaustive ``min max T_j(n_j)`` over every split of a 3-component budget."""
    if len(models) != 3:
        raise ValueError("brute force covers 3-component requests")
    N = int(total_nodes)
    n = np.arange(1, N + 1, dtype=float)
    t1, t2 = curve(models[0], n), curve(models[1], n)
    p3 = _prefix_min(curve(models[2], n))  # best n3 <= rest
    n1, n2 = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
    rest = N - n1 - n2
    ok = rest >= 1
    grid = np.maximum(np.maximum(t1[n1 - 1], t2[n2 - 1]), p3[np.maximum(rest, 1) - 1])
    return float(np.where(ok, grid, np.inf).min())


def check_minmax(
    models: Mapping[str, object],
    alloc: Mapping[str, int],
    objective: float,
    total_nodes: int,
    optimum: float,
) -> str | None:
    """``None`` when a min-max allocation is feasible and attains ``optimum``."""
    if set(alloc) != set(models):
        return "allocation components do not match the request"
    if any(count < 1 for count in alloc.values()):
        return "a component gets no nodes"
    used = sum(alloc.values())
    if used > int(total_nodes):
        return f"allocation spends {used} of {total_nodes} nodes"
    makespan = max(float(curve(models[c], np.asarray(k))) for c, k in alloc.items())
    if not _close(makespan, objective):
        return f"objective {objective:.9g} != allocation makespan {makespan:.9g}"
    if not _close(makespan, optimum):
        return f"makespan {makespan:.9g} is not the optimum {optimum:.9g}"
    return None
