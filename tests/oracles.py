"""Reference implementations used only to check production code.

predict_return_raw is the forecast on the raw weights, each coefficient and
the weight total computed on every call; agents.predict_return reads them
precomputed on the Agent record, and the two must agree bit for bit.

price_of_exact is a whole number of ticks times the tick's repr, in rational
arithmetic, rounded once to a float; orderbook.price_of and every book price
must equal it.

update_mood is the per-agent conformity rule that the engine applies inline
in its mood pass: it flips an agent's optimistic bool. in_no_exec_window is the step-by-step form of the windows
the engine turns into one boolean mask: no trade may carry a step inside a
window. daily_mood_change_rate is the optimist share's spread over a day
(max minus min), the statistic of the mood-band check. bar_volumes_loop sums
each minute's trades one by one, where timegrid.bar_volumes differences a
cumulative sum.

ot_distance_loop marches over the northwest corner one step at a time;
metrics.ot_distance computes the same coupling over the merged breakpoints,
and the two must agree bit for bit.

vertex_ot enumerates transport-polytope vertices: with uniform per-side
marginals, every vertex is a northwest-corner solution under some pair of
row/column orderings, and the allocation pattern (which step moves how
much) is permutation-independent, so the pattern is computed once and the
cost is vectorized over orderings.
"""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from lobfactor.agents import Agent


def predict_return_raw(agent: Agent, p_t: float, p_f: float, p_lag: float,
                       eps: float) -> float | None:
    total = agent.w_f + agent.w_c + agent.w_m + agent.w_n
    if total == 0.0:
        return None
    acc = 0.0
    if agent.w_f > 0.0:
        acc += agent.w_f / agent.tau_f * math.log(p_f / p_t)
    if agent.w_c > 0.0:
        acc += agent.w_c / agent.tau * math.log(p_t / p_lag)
    if agent.w_m > 0.0:
        acc += agent.w_m * (1.0 if agent.optimistic else -1.0)
    if agent.w_n > 0.0:
        acc += agent.w_n * eps
    return acc / total


def price_of_exact(n: int, tick: float) -> float:
    return float(Fraction(n) * Fraction(repr(float(tick))))


def update_mood(
    agent: Agent,
    n_opt: int,
    n_pes: int,
    n_total: int,
    nu: float,
    u: float,
) -> Agent:
    """One conformity draw: flip toward the opposite camp with probability
    nu * (opposite camp size) / n_total. All-optimist and all-pessimist
    states are absorbing. Mutates and returns the agent."""
    if agent.optimistic:
        if u < nu * n_pes / n_total:
            agent.optimistic = False
    else:
        if u < nu * n_opt / n_total:
            agent.optimistic = True
    return agent


def in_no_exec_window(step: int, windows) -> bool:
    return any(lo <= step <= hi for lo, hi in windows)


def daily_mood_change_rate(optimists_rate: list[float]) -> float:
    """Spread of the optimist share over a run: max minus min."""
    if not optimists_rate:
        raise ValueError("optimists_rate is empty")
    return max(optimists_rate) - min(optimists_rate)


def bar_volumes_loop(trades, indices) -> tuple[int, ...]:
    """Shares traded in each minute: the trades after the furthest earlier
    index, up to this minute's index."""
    vols = []
    prev = 0
    for i in indices:
        vols.append(sum(t.volume for t in trades[prev:i]))
        prev = max(prev, i)
    return tuple(vols)


def nw_allocation_pattern(n_a: int, n_b: int):
    """Sequence of (a-slot, b-slot, units) the NW rule produces for uniform marginals."""
    path = []
    i = j = 0
    rem_a, rem_b = n_b, n_a
    while i < n_a and j < n_b:
        moved = min(rem_a, rem_b)
        path.append((i, j, moved))
        rem_a -= moved
        rem_b -= moved
        if rem_a == 0:
            i += 1
            rem_a = n_b
        if rem_b == 0:
            j += 1
            rem_b = n_a
    return path


def ot_distance_loop(xa, xb):
    """metrics.ot_distance as a march over the northwest corner: sort both
    sides, then add each step's moved units times the squared gap, one step
    at a time. Equal sizes pair the sorted points directly."""
    xa = np.sort(np.asarray(xa, dtype=float))
    xb = np.sort(np.asarray(xb, dtype=float))
    n_a, n_b = xa.size, xb.size
    if n_a == n_b:
        d = xa - xb
        return float(np.dot(d, d)) / n_a
    cost_units = 0.0
    for i, j, moved in nw_allocation_pattern(n_a, n_b):
        d = xa[i] - xb[j]
        cost_units += moved * d * d
    return cost_units / (n_a * n_b)


def vertex_ot(xa, xb) -> float:
    """Exact minimum over all transport-polytope vertices (small clouds only)."""
    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    n_a, n_b = xa.size, xb.size
    path = nw_allocation_pattern(n_a, n_b)
    i_seq = np.array([p[0] for p in path])
    j_seq = np.array([p[1] for p in path])
    mass = np.array([p[2] for p in path], dtype=float)
    row_orders = np.array(list(permutations(range(n_a))))
    a_at_step = xa[row_orders][:, i_seq]  # (n_a!, steps)
    best = np.inf
    for col_order in permutations(range(n_b)):
        b_at_step = xb[np.array(col_order)][j_seq]  # (steps,)
        costs = ((a_at_step - b_at_step) ** 2) @ mass
        best = min(best, float(costs.min()))
    return best / (n_a * n_b)


def linprog_ot(xa, xb) -> float:
    """Generic LP solution of the same OT problem (scipy HiGHS)."""
    from scipy.optimize import linprog

    xa = np.asarray(xa, dtype=float)
    xb = np.asarray(xb, dtype=float)
    n_a, n_b = xa.size, xb.size
    cost = (xa[:, None] - xb[None, :]) ** 2
    a_eq = []
    b_eq = []
    for i in range(n_a):
        row = np.zeros((n_a, n_b))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(1.0 / n_a)
    for j in range(n_b - 1):  # last column constraint is redundant
        col = np.zeros((n_a, n_b))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(1.0 / n_b)
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)
