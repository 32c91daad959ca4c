"""Reference implementations used only to check production code.

predict_return_raw is the forecast on the raw weights, each coefficient and
the weight total computed on every call; agents.predict_return reads them
precomputed on AgentParams, and the two must agree bit for bit.

decide_order_aligned_first is the sizing rule as it reads when the limit is
aligned before anything else; agents.decide_order sizes first and aligns
only for an order it can place, and the two must return equal orders.

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
from itertools import permutations

import numpy as np

from lobfactor.agents import RETURN_HORIZON_CLAMP, Agent, AgentParams, AgentState
from lobfactor.orderbook import Order, Side, align_to_tick


def predict_return_raw(
    params: AgentParams,
    state: AgentState,
    p_t: float,
    p_f: float,
    p_lag: float,
    eps: float,
) -> float | None:
    total = params.w_f + params.w_c + params.w_m + params.w_n
    if total == 0.0:
        return None
    acc = 0.0
    if params.w_f > 0.0:
        acc += params.w_f / params.tau_f * math.log(p_f / p_t)
    if params.w_c > 0.0:
        acc += params.w_c / params.tau * math.log(p_t / p_lag)
    if params.w_m > 0.0:
        acc += params.w_m * (1.0 if state.optimistic else -1.0)
    if params.w_n > 0.0:
        acc += params.w_n * eps
    return acc / total


def decide_order_aligned_first(
    agent: Agent,
    p_t: float,
    r_hat: float,
    step: int,
    sigma_sq: float,
    v_max: int,
    tick: float,
    order_id: int,
) -> Order | None:
    params, state = agent.params, agent.state
    g = params.tau * r_hat
    if g > RETURN_HORIZON_CLAMP:
        g = RETURN_HORIZON_CLAMP
    elif g < -RETURN_HORIZON_CLAMP:
        g = -RETURN_HORIZON_CLAMP
    p_hat = p_t * math.exp(g)
    limit = align_to_tick(p_hat, tick)
    if limit < tick:
        return None
    pi_star = math.log(p_hat / p_t) / (params.alpha_j * sigma_sq * p_t)
    delta = round(pi_star) - state.shares
    if delta > 0:
        volume = int((state.cash - state.committed_ticks * tick) / limit)  # affordable
        side = Side.BUY
    elif delta < 0:
        delta = -delta
        volume = state.shares - state.committed_shares
        side = Side.SELL
    else:
        return None
    volume = min(delta, v_max, volume)
    if volume < 1:
        return None
    return Order(order_id, agent.agent_id, side, limit, volume, step, step + params.tau)


def update_mood(
    state: AgentState,
    n_opt: int,
    n_pes: int,
    n_total: int,
    nu: float,
    u: float,
) -> AgentState:
    """One conformity draw: flip toward the opposite camp with probability
    nu * (opposite camp size) / n_total. All-optimist and all-pessimist
    states are absorbing. Mutates and returns the state."""
    if state.optimistic:
        if u < nu * n_pes / n_total:
            state.optimistic = False
    else:
        if u < nu * n_opt / n_total:
            state.optimistic = True
    return state


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
