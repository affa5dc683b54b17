"""Independent reference implementations used only by the test suite.

Everything here recomputes package quantities from first principles with
deliberately different code paths: plain Python loops instead of subset-sum
tables, vertex enumeration instead of simplex pivoting, library special
functions instead of hand-rolled series.
"""

from __future__ import annotations

import itertools

import numpy as np

from bcc.simplex import EQ, GE, LE


def success_by_loops(w, code, mode: str = "joint") -> float:
    """Success probability of a fixed code straight from the definition."""
    k1, k2 = code.k1, code.k2
    total = 0.0
    for i1 in range(k1):
        for i2 in range(k2):
            x = code.encoder[i1][i2]
            for y1 in range(w.out1_size):
                for y2 in range(w.out2_size):
                    p = float(w.probs[x, y1, y2])
                    ok1 = code.decoder1[y1] == i1
                    ok2 = code.decoder2[y2] == i2
                    if mode == "joint":
                        total += p if (ok1 and ok2) else 0.0
                    else:
                        total += p * (ok1 + ok2) / 2.0
    return total / (k1 * k2)


def best_code_bruteforce(w, k1: int, k2: int, mode: str = "joint",
                         full_encoders: bool = False) -> float:
    """Optimal deterministic-code success by looping over all decoders.

    With full_encoders the |X|^(k1 k2) encoder maps are enumerated outright;
    otherwise each message cell independently takes its best input, which is
    exhaustive because cells contribute separately for fixed decoders.
    """
    nx, n1, n2 = w.input_size, w.out1_size, w.out2_size
    best = -1.0
    for d1 in itertools.product(range(k1), repeat=n1):
        for d2 in itertools.product(range(k2), repeat=n2):
            cell = np.zeros((nx, k1, k2))
            for x in range(nx):
                for y1 in range(n1):
                    for y2 in range(n2):
                        p = float(w.probs[x, y1, y2])
                        if mode == "joint":
                            cell[x, d1[y1], d2[y2]] += p
                        else:
                            cell[x, d1[y1], :] += p / 2.0
                            cell[x, :, d2[y2]] += p / 2.0
            if full_encoders:
                value = max(sum(cell[e[i1 * k2 + i2], i1, i2]
                                for i1 in range(k1) for i2 in range(k2))
                            for e in itertools.product(range(nx), repeat=k1 * k2))
            else:
                value = cell.max(axis=0).sum()
            best = max(best, value)
    return best / (k1 * k2)


def orbit_minima(nx: int, k1: int, k2: int) -> list:
    """Encoders that are the smallest of their orbit, in lexicographic order.

    Each k1 x k2 grid of inputs (a tuple of rows) is compared with every grid
    its row and column permutations reach; none of the package's sorting
    shortcuts is used.
    """
    out = []
    for flat in itertools.product(range(nx), repeat=k1 * k2):
        enc = np.asarray(flat).reshape(k1, k2)
        grid = tuple(map(tuple, enc.tolist()))
        if all(grid <= tuple(map(tuple, enc[list(s)][:, list(t)].tolist()))
               for s in itertools.permutations(range(k1))
               for t in itertools.permutations(range(k2))):
            out.append(grid)
    return out


def decoder_box_value(w, encoder, objective: str = "joint", exact: bool = False):
    """Decoder-box optimum of one encoder, its program built and solved on its own.

    Float mode solves the built program as it is.  Exact mode builds the
    objective by loops from the exact terms Fraction(w[x]) / (k1 k2), or
    / (2 k1 k2) for sum, and runs the Fraction simplex.
    """
    from dataclasses import replace
    from fractions import Fraction

    from bcc.nsprograms import build_decoder_box_lp
    from bcc.simplex import lp_solve
    enc = np.asarray(encoder, dtype=int)
    k1, k2 = enc.shape
    n1, n2 = w.out1_size, w.out2_size
    model = build_decoder_box_lp(w, enc, k1, k2, objective)
    if exact:
        c = np.full((k1, k2, n1, n2), Fraction(0), dtype=object)
        for i1, i2, y1, y2 in itertools.product(range(k1), range(k2), range(n1), range(n2)):
            p = Fraction(float(w.probs[enc[i1, i2], y1, y2]))
            if objective == "joint":
                c[i1, i2, y1, y2] += p / (k1 * k2)
            else:
                term = p / (2 * k1 * k2)
                c[i1, :, y1, y2] += term   # receiver 1 decodes i1
                c[:, i2, y1, y2] += term   # receiver 2 decodes i2
        model = replace(model, objective=c.ravel())
    return lp_solve(model, exact=exact).value


def first_strict_maximum(encoders, values):
    """The value and the first encoder, in the given order, that strictly
    beats every earlier one."""
    best_val, best_enc = None, None
    for enc, value in zip(encoders, values):
        if best_val is None or value > best_val:
            best_val, best_enc = value, tuple(map(tuple, np.asarray(enc).tolist()))
    return best_val, best_enc


def ns_dec_by_all_encoders(w, k1: int, k2: int, objective: str = "joint",
                           exact: bool = False):
    """Decoder-box optimum with one LP per labelled encoder, no symmetry used.

    Returns the value and the first encoder, in lexicographic order, that
    strictly beats every earlier one.
    """
    encoders = [np.asarray(flat).reshape(k1, k2)
                for flat in itertools.product(range(w.input_size), repeat=k1 * k2)]
    return first_strict_maximum(
        encoders, [decoder_box_value(w, enc, objective, exact) for enc in encoders])


def ns_dec_by_orbit_loop(w, k1: int, k2: int, objective: str = "joint",
                         exact: bool = False):
    """Decoder-box optimum with one LP per orbit, every orbit solved.

    The exhaustive loop over the smallest encoder of each orbit, in
    lexicographic order, keeping the first strict maximum.
    """
    reps = orbit_minima(w.input_size, k1, k2)
    return first_strict_maximum(
        reps, [decoder_box_value(w, enc, objective, exact) for enc in reps])


def decoder_box_bound(w, encoder, objective: str = "joint", exact: bool = False):
    """Upper bound on one encoder's decoder-box optimum, by loops.

    r1 sums over y1 the best i1 of the mass sent in row i1 that lands on y1;
    r2 likewise over y2 and columns; the signaling bound sums over (y1, y2)
    the best single cell.  Joint: min(signaling, r1, r2) / (k1 k2); sum:
    (r1 + r2) / (2 k1 k2).  Exact mode adds Fractions.
    """
    from fractions import Fraction
    enc = np.asarray(encoder, dtype=int)
    k1, k2 = enc.shape
    n1, n2 = w.out1_size, w.out2_size
    conv = Fraction if exact else float

    def p(i1, i2, y1, y2):
        return conv(float(w.probs[enc[i1, i2], y1, y2]))

    r1 = sum(max(sum(p(i1, i2, y1, y2) for i2 in range(k2) for y2 in range(n2))
                 for i1 in range(k1)) for y1 in range(n1))
    r2 = sum(max(sum(p(i1, i2, y1, y2) for i1 in range(k1) for y1 in range(n1))
                 for i2 in range(k2)) for y2 in range(n2))
    if objective == "sum":
        return (r1 + r2) / (2 * k1 * k2)
    signaling = sum(max(p(i1, i2, y1, y2) for i1 in range(k1) for i2 in range(k2))
                    for y1 in range(n1) for y2 in range(n2))
    return min(signaling, r1, r2) / (k1 * k2)


def pruned_lp_count(bounds, values, margin) -> int:
    """LPs that solving in order of decreasing bound (ties in the given
    order) and stopping at the first bound below the best value less margin
    solves."""
    best, count = None, 0
    for i in sorted(range(len(bounds)), key=lambda j: bounds[j], reverse=True):
        if best is not None and bounds[i] < best - margin:
            break
        count += 1
        best = values[i] if best is None else max(best, values[i])
    return count


def dense_pivot(T: np.ndarray, basis: np.ndarray, p: int, q: int) -> None:
    """Simplex pivot on (p, q) as one dense rank-1 update of the whole tableau.

    The right-hand side is then clipped at zero, as the package's float
    tableau does against drift; the exact tableau keeps it nonnegative, so
    on an object array of Fractions the clip changes nothing.
    """
    col = T[:, q].copy()
    col[p] = 0
    T[p] = T[p] / T[p, q]
    T -= np.outer(col, T[p])
    T[:, q] = 0
    T[p, q] = 1
    basis[p] = q
    T[:, -1] = np.maximum(T[:, -1], 0)


def looped_reduced_costs(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """cost minus c_B times the tableau, one basic row at a time in row order."""
    r = cost.copy()
    basic_cost = cost[basis]
    for i in np.flatnonzero(basic_cost != 0.0):
        r -= basic_cost[i] * T[i, :-1]
    return r


def compact_program_by_loops(probs: np.ndarray, k1: int, k2: int, objective: str) -> dict:
    """The compact program of one channel use, written row by row in loops:
    objective, rows, relations, rhs and names, as the package lays them out
    (variables p, r, r1, r2 and the row families in order, indices
    row-major)."""
    nx, n1, n2 = probs.shape
    names = ([f"p_x{x}" for x in range(nx)]
             + [f"r_x{x}_a{a}_b{b}" for x in range(nx) for a in range(n1) for b in range(n2)]
             + [f"r1_x{x}_a{a}" for x in range(nx) for a in range(n1)]
             + [f"r2_x{x}_b{b}" for x in range(nx) for b in range(n2)])
    col = {name: j for j, name in enumerate(names)}
    rows, rels, rhs, row_names = [], [], [], []

    def add(name, terms, rel, b):
        row = np.zeros(len(names))
        for var, coef in terms:
            row[col[var]] += coef
        rows.append(row)
        rels.append(rel)
        rhs.append(float(b))
        row_names.append(name)

    for a in range(n1):
        for b in range(n2):
            add(f"norm_r_a{a}_b{b}", [(f"r_x{x}_a{a}_b{b}", 1.0) for x in range(nx)], EQ, 1)
    for a in range(n1):
        add(f"norm_r1_a{a}", [(f"r1_x{x}_a{a}", 1.0) for x in range(nx)], EQ, k2)
    for b in range(n2):
        add(f"norm_r2_b{b}", [(f"r2_x{x}_b{b}", 1.0) for x in range(nx)], EQ, k1)
    add("norm_p", [(f"p_x{x}", 1.0) for x in range(nx)], EQ, k1 * k2)
    cells = [(x, a, b) for x in range(nx) for a in range(n1) for b in range(n2)]
    for other, cut in (("r1", "a"), ("r2", "b")):
        for x, a, b in cells:
            add(f"r_le_{other}_x{x}_a{a}_b{b}",
                [(f"r_x{x}_a{a}_b{b}", 1.0),
                 (f"{other}_x{x}_{cut}{a if cut == 'a' else b}", -1.0)], LE, 0)
    for block, letter, size in (("r1", "a", n1), ("r2", "b", n2)):
        for x in range(nx):
            for y in range(size):
                add(f"{block}_le_p_x{x}_{letter}{y}",
                    [(f"{block}_x{x}_{letter}{y}", 1.0), (f"p_x{x}", -1.0)], LE, 0)
    for x, a, b in cells:
        add(f"slack_x{x}_a{a}_b{b}", [(f"p_x{x}", 1.0), (f"r1_x{x}_a{a}", -1.0),
                                      (f"r2_x{x}_b{b}", -1.0), (f"r_x{x}_a{a}_b{b}", 1.0)], GE, 0)

    c = np.zeros(len(names))
    w1, w2 = probs.sum(axis=2), probs.sum(axis=1)
    for x, a, b in cells:
        if objective == "joint":
            c[col[f"r_x{x}_a{a}_b{b}"]] = probs[x, a, b] / (k1 * k2)
    if objective == "sum":
        for x in range(nx):
            for a in range(n1):
                c[col[f"r1_x{x}_a{a}"]] = w1[x, a] / (2 * k1 * k2)
            for b in range(n2):
                c[col[f"r2_x{x}_b{b}"]] = w2[x, b] / (2 * k1 * k2)
    return {"num_vars": len(names), "objective": c, "rows": np.array(rows),
            "relations": tuple(rels), "rhs": np.array(rhs),
            "var_names": tuple(names), "row_names": tuple(row_names)}


def quotient_pair_set(g, p1, p2) -> set:
    """Part pairs (i1, i2) joined by at least one edge, as an explicit set."""
    return {(p1.assignment[u], p2.assignment[v]) for u, v in g.edges()}


def quotient_edges_sets(g, p1, p2) -> int:
    """Quotient edge count through explicit pair sets."""
    return len(quotient_pair_set(g, p1, p2))


def dqg_bruteforce(g, k1: int, k2: int):
    """Optimal quotient edges by looping over all assignment pairs."""
    from bcc.graphs import Partition
    best, witness = -1, None
    for a1 in itertools.product(range(k1), repeat=g.left_size):
        p1 = Partition(g.left_size, k1, a1)
        for a2 in itertools.product(range(k2), repeat=g.right_size):
            p2 = Partition(g.right_size, k2, a2)
            val = quotient_edges_sets(g, p1, p2)
            if val > best:
                best, witness = val, (p1, p2)
    return best, witness


def best_pair_by_grid(table: np.ndarray, masks1: np.ndarray,
                      masks2: np.ndarray) -> tuple[float, int, int]:
    """exact._best_pair by 2-D fancy gathers into a grid of up to 5 000 000 pairs.

    Maximizes sum of table[masks1[a, i1], masks2[b, i2]] over pairs (a, b),
    adding the k1 k2 lookups i1 outer and i2 inner from zero, and scans
    a-major so the first maximum is the lexicographically smallest witness.
    """
    n1c, k1 = masks1.shape
    n2c, k2 = masks2.shape
    best_val, best_a, best_b = -np.inf, -1, -1
    chunk = max(1, int(5_000_000 // max(n2c, 1)))
    for a0 in range(0, n1c, chunk):
        m1 = masks1[a0:a0 + chunk]
        grid = np.zeros((m1.shape[0], n2c))
        for i1 in range(k1):
            col = m1[:, i1][:, None]
            for i2 in range(k2):
                grid += table[col, masks2[:, i2][None, :]]
        flat = int(np.argmax(grid))
        val = float(grid.flat[flat])
        if val > best_val:
            best_val = val
            best_a = a0 + flat // n2c
            best_b = flat % n2c
    return best_val, best_a, best_b


def solve_by_input_tables(source, k1: int, k2: int, objective: str):
    """solve_joint, solve_sum (objective "sum") or solve_dqg (a graph source)
    through the decoder-enumeration kernel that keeps one table per input.

    Each input's whole cell table is built in turn and merged into the
    running maximum, with the best input of every cell remembered as it
    goes; the same tables and tie rules as the package's kernel, which keeps
    no per-cell input, and the pair scan by grid, best_pair_by_grid.
    """
    from bcc.exact import Code, SolveReport, _assignment_rows, _members, _part_masks
    from bcc.graphs import Partition
    if objective == "dqg":
        n1, n2 = source.left_size, source.right_size
        adj = np.zeros((n1, n2))
        adj[source.edge_arrays] = 1.0
        tables = [((_members(n1) @ adj @ _members(n2).T) > 0).astype(float)]
    elif objective == "joint":
        n1, n2 = source.out1_size, source.out2_size
        m1, m2 = _members(n1), _members(n2)
        tables = (m1 @ px @ m2.T for px in source.probs)
    else:
        n1, n2 = source.out1_size, source.out2_size
        g1 = source.probs.sum(axis=2) @ _members(n1).T
        g2 = source.probs.sum(axis=1) @ _members(n2).T
        tables = (0.5 * (g1[x][:, None] + g2[x][None, :]) for x in range(source.input_size))
    table = np.full((1 << n1, 1 << n2), -np.inf)
    argmax_x = np.zeros((1 << n1, 1 << n2), dtype=np.int64)
    for x, gx in enumerate(tables):
        better = gx > table  # strict: the smallest input keeps a tie
        table[better] = gx[better]
        argmax_x[better] = x
    rows = [_assignment_rows(n1, k1), _assignment_rows(n2, k2)]
    masks = [_part_masks(rows[0], k1), _part_masks(rows[1], k2)]
    best_val, a, b = best_pair_by_grid(table, *masks)
    dec1, dec2 = tuple(rows[0][a].tolist()), tuple(rows[1][b].tolist())
    enumerated = k1**n1 * k2**n2
    if objective == "dqg":
        witness = (Partition(n1, k1, dec1), Partition(n2, k2, dec2))
        return SolveReport(int(round(best_val)), witness, enumerated)
    encoder = tuple(tuple(int(argmax_x[s1, s2]) for s2 in masks[1][b]) for s1 in masks[0][a])
    return SolveReport(best_val / (k1 * k2), Code(k1, k2, encoder, dec1, dec2), enumerated)


def welfare_bruteforce(value_fn, m: int, k1: int) -> float:
    """Optimal welfare by looping over all k1^m bundle assignments."""
    best = -1.0
    for assignment in itertools.product(range(k1), repeat=m):
        bundles = [set() for _ in range(k1)]
        for item, bundle in enumerate(assignment):
            bundles[bundle].add(item)
        best = max(best, sum(value_fn(b) for b in bundles))
    return best


def f1_from_table(probs: np.ndarray, subset) -> float:
    """Receiver-1 fractional valuation read off a dense channel table."""
    items = sorted(subset)
    if not items:
        return 0.0
    mass = probs[:, items, :].sum(axis=1)  # (x, y2)
    return float(mass.max(axis=0).mean())


def lp_vertex_oracle(model, feas_tol: float = 1e-9):
    """Maximum of a bounded feasible LP by enumerating basic feasible points.

    All constraints, x >= 0 included, become a.x <= b rows (equalities
    contribute both signs and are forced active); every n-subset of constraints with independent
    gradients defines a candidate vertex, solved in a single batched call.
    """
    n = model.num_vars
    rows_le, rhs_le, forced = [], [], []
    for row, rel, b in zip(model.rows, model.relations, model.rhs):
        a = np.asarray(row, dtype=float)
        b = float(b)
        if rel == LE:
            rows_le.append(a), rhs_le.append(b)
        elif rel == GE:
            rows_le.append(-a), rhs_le.append(-b)
        elif rel == EQ:
            rows_le.append(a), rhs_le.append(b)
            rows_le.append(-a), rhs_le.append(-b)
            forced.append((a, b))
        else:
            raise ValueError(rel)
    rows_le = np.vstack([np.reshape(rows_le, (-1, n)), -np.eye(n)])
    rhs_le = np.append(rhs_le, np.zeros(n))

    forced_a = np.array([a for a, _ in forced]).reshape(len(forced), n)
    forced_b = np.array([b for _, b in forced])
    free = len(forced)
    if free > n:
        raise ValueError("more independent equalities than variables")

    combos = list(itertools.combinations(range(len(rows_le)), n - free))
    mats = np.empty((len(combos), n, n))
    rhss = np.empty((len(combos), n))
    for i, combo in enumerate(combos):
        mats[i, :free] = forced_a
        mats[i, free:] = rows_le[list(combo)]
        rhss[i, :free] = forced_b
        rhss[i, free:] = rhs_le[list(combo)]
    dets = np.linalg.det(mats)
    good = np.abs(dets) > 1e-12
    if not good.any():
        return None
    points = np.linalg.solve(mats[good], rhss[good][..., None])[..., 0]
    feasible = (rows_le @ points.T <= rhs_le[:, None] + feas_tol).all(axis=0)
    if free:
        feasible &= (np.abs(forced_a @ points.T - forced_b[:, None]) <= feas_tol).all(axis=0)
    if not feasible.any():
        return None
    objective = np.asarray(model.objective, dtype=float)
    return float((points[feasible] @ objective).max())


def poisson_min_mean(k: int, x: float) -> float:
    """E[min(k, N)] for N ~ Poisson(x) via survival functions."""
    from scipy.stats import poisson
    return float(sum(poisson.sf(j - 1, x) for j in range(1, k + 1)))
