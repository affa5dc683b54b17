"""Build one workload's corpus: channel files plus the reference values to check.

    python3 perfbench/corpus.py WORKLOAD SEED SIZE WORKDIR

Writes WORKDIR/c<i>.json for each instance and WORKDIR/corpus.json listing
the instances.  Each workload is a fixed rotation of instance shapes; the
seed only draws the channel entries through bcc.generators, so every seed
puts the same mix of work in a run and the seed-to-seed spread stays small.
Runs untimed, in its own process, before the measured loop.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from bcc.files import channel_to_dict
from bcc.generators import random_channel, random_deterministic_channel, random_dyadic_channel
from workloads import Instance


def _write(channel, path: Path) -> str:
    path.write_text(json.dumps(channel_to_dict(channel)))
    return str(path)


def _tensor_square(probs: np.ndarray) -> np.ndarray:
    """W (x) W with position 0 most significant, computed independently of bcc."""
    nx, n1, n2 = probs.shape
    return np.kron(probs.reshape(nx, n1 * n2), probs.reshape(nx, n1 * n2)).reshape(
        nx, nx, n1, n2, n1, n2).transpose(0, 1, 2, 4, 3, 5).reshape(nx * nx, n1 * n1, n2 * n2)


def compact_ns_values(probs: np.ndarray, k1: int, k2: int) -> dict:
    """S_ns and S_ns_sum from scipy's HiGHS on the compact program.

    The program is written out here from its definition: input weights p[x],
    both-correct weights r[x,y1,y2] and per-receiver weights r1[x,y1],
    r2[x,y2], with r <= r1, r <= r2, r1 <= p, r2 <= p, p - r1 - r2 + r >= 0,
    sum_x r = 1, sum_x r1 = k2, sum_x r2 = k1 and sum_x p = k1 k2.
    """
    nx, n1, n2 = probs.shape
    p = np.arange(nx)
    r = nx + np.arange(nx * n1 * n2).reshape(nx, n1, n2)
    r1 = r.max() + 1 + np.arange(nx * n1).reshape(nx, n1)
    r2 = r1.max() + 1 + np.arange(nx * n2).reshape(nx, n2)
    n = r2.max() + 1

    def rows(*terms):
        shape = np.broadcast_shapes(*(np.shape(idx) for idx, _ in terms))
        out = np.zeros((int(np.prod(shape)), n))
        at = np.arange(out.shape[0])
        for idx, coef in terms:
            np.add.at(out, (at, np.broadcast_to(idx, shape).ravel()), coef)
        return out

    a_ub = np.vstack([
        rows((r, 1), (r1[:, :, None], -1)),
        rows((r, 1), (r2[:, None, :], -1)),
        rows((r1, 1), (p[:, None], -1)),
        rows((r2, 1), (p[:, None], -1)),
        rows((p[:, None, None], -1), (r1[:, :, None], 1), (r2[:, None, :], 1), (r, -1)),
    ])
    a_eq = np.vstack([
        rows(*[(r[x], 1) for x in range(nx)]),
        rows(*[(r1[x], 1) for x in range(nx)]),
        rows(*[(r2[x], 1) for x in range(nx)]),
        rows(*[(p[x:x + 1], 1) for x in range(nx)]),
    ])
    b_eq = np.concatenate([np.ones(n1 * n2), np.full(n1, k2), np.full(n2, k1), [k1 * k2]])
    joint = np.zeros(n)
    joint[r.ravel()] = probs.ravel() / (k1 * k2)
    total = np.zeros(n)
    total[r1.ravel()] = probs.sum(axis=2).ravel() / (2 * k1 * k2)
    total[r2.ravel()] = probs.sum(axis=1).ravel() / (2 * k1 * k2)
    out = {}
    for key, c in (("S_ns", joint), ("S_ns_sum", total)):
        res = linprog(-c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference solve for {key} failed: {res.message}")
        out[key] = -res.fun
    return out


def _assignments(n: int, k: int) -> np.ndarray:
    """Every map from n symbols to k labels, one per row."""
    return np.array(list(product(range(k), repeat=n)), dtype=np.int64).reshape(-1, n)


def brute_force_values(probs: np.ndarray, k1: int, k2: int) -> dict:
    """S and S_sum by trying every decoder pair, each message cell sent by its best input."""
    onehot1 = np.eye(k1)[_assignments(probs.shape[1], k1)]   # (pairs, |Y1|, k1)
    onehot2 = np.eye(k2)[_assignments(probs.shape[2], k2)]
    both = np.einsum("xab,pai,qbj->pqxij", probs, onehot1, onehot2)
    right1 = np.einsum("xa,pai->pxi", probs.sum(axis=2), onehot1)
    right2 = np.einsum("xb,qbj->qxj", probs.sum(axis=1), onehot2)
    either = right1[:, None, :, :, None] + right2[None, :, :, None, :]
    return {"S": both.max(axis=2).sum(axis=(2, 3)).max() / (k1 * k2),
            "S_sum": either.max(axis=2).sum(axis=(2, 3)).max() / (2 * k1 * k2)}


def deterministic_values(pairs: list, n1: int, n2: int, k1: int, k2: int) -> dict:
    """S and S_sum of a deterministic channel by counting, over every decoder pair.

    Message cell (i1, i2) is sent right to both receivers when some input's
    output pair decodes to it, and right to one receiver when i1 or i2 is
    decoded from some input.  With J such joint cells and R1, R2 the decoded
    label sets, the sum objective counts J + |R1| k2 + |R2| k1 - |R1||R2|.
    """
    y1, y2 = np.array(pairs).T
    row = _assignments(n1, k1)[:, y1]        # (decoders1, |X|)
    col = _assignments(n2, k2)[:, y2]
    reach1 = np.eye(k1, dtype=bool)[row].any(axis=1).sum(axis=1)
    reach2 = np.eye(k2, dtype=bool)[col].any(axis=1).sum(axis=1)
    popcount = np.array([bin(m).count("1") for m in range(1 << (k1 * k2))])
    best_joint = best_total = 0
    for s in range(0, len(row), 64):
        cells = np.left_shift(1, row[s:s + 64, None, :] * k2 + col[None, :, :])
        joint = popcount[np.bitwise_or.reduce(cells, axis=2)]    # (64, decoders2)
        r1 = reach1[s:s + 64, None]
        best_joint = max(best_joint, int(joint.max()))
        best_total = max(best_total, int((joint + r1 * k2 + reach2 * k1 - r1 * reach2).max()))
    return {"S": best_joint / (k1 * k2), "S_sum": best_total / (2 * k1 * k2)}


def decoder_box_value(probs: np.ndarray, k1: int, k2: int) -> float:
    """S_ns_dec: every encoder, each with its best decoder box by HiGHS.

    The box d[j1, j2, y1, y2] is a distribution over (j1, j2) for each output
    pair whose j1 marginal does not depend on y2 nor its j2 marginal on y1.
    S_ns_dec_sum gets no reference of its own: the report's own check
    decoder_box_sum_idle ties it to S_sum, which has one.
    """
    nx, n1, n2 = probs.shape
    var = np.arange(k1 * k2 * n1 * n2).reshape(k1, k2, n1, n2)
    a_eq, b_eq = [], []

    def constraint(plus, minus, rhs):
        row = np.zeros(var.size)
        row[plus] += 1
        row[minus] -= 1
        a_eq.append(row)
        b_eq.append(rhs)

    for y1 in range(n1):
        for y2 in range(n2):
            constraint(var[:, :, y1, y2].ravel(), [], 1)
            for j1 in range(k1):
                if y2:
                    constraint(var[j1, :, y1, y2], var[j1, :, y1, 0], 0)
            for j2 in range(k2):
                if y1:
                    constraint(var[:, j2, y1, y2], var[:, j2, 0, y2], 0)
    a_eq = np.array(a_eq)
    best = -1.0
    for flat in product(range(nx), repeat=k1 * k2):
        joint = np.zeros(var.shape)   # message (i1, i2) sent as input x(i1, i2)
        joint[np.arange(k1)[:, None], np.arange(k2)[None, :]] = (
            probs[np.reshape(flat, (k1, k2))] / (k1 * k2))
        res = linprog(-joint.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference solve for S_ns_dec failed: {res.message}")
        best = max(best, -res.fun)
    return best


# Quantiles of a mixture jump when the run's instance count moves the median
# or the tail across the gap between two shapes' latencies.  So det-cli and
# approx use shapes of about the same latency, and solve-dense, whose tensor
# instance is faster, gives its two slowest shapes two thirds of the slots.
DENSE_SHAPES = ((3, 3, 3), (3, 3, 4), (3, 4, 3), None, (3, 3, 4), (3, 4, 3))
DET_SHAPES = (((14, 7, 6), 3), ((18, 9, 9), 2), ((400, 60, 60), 8))
APPROX_SHAPES = ((30_000, 8), (4000, 28))   # (inputs, k); outputs 1000x1000


def _solve_dense(seed: int, i: int, work: Path) -> Instance:
    shape = DENSE_SHAPES[i % len(DENSE_SHAPES)]
    k = ["--k1", "2", "--k2", "2", "--verify"]
    if shape is None:
        # ns-dec on the 4x4x4 square of a 2x2x2 channel would solve 512 LPs
        # (about 5 s), so the tensor instance leaves it out.
        shape = (2, 2, 2)
        ch = random_channel(*shape, seed=[seed, i])
        path = _write(ch, work / f"c{i}.json")
        args = ["tensor", path, "--n", "2", "--which", "joint", "sum", "ns", "ns-sum"] + k
        probs = _tensor_square(ch.probs)
        expect = {}
    else:
        ch = random_channel(*shape, seed=[seed, i])
        path = _write(ch, work / f"c{i}.json")
        args = ["solve", path, "--which", "all"] + k
        probs = ch.probs
        expect = {"S_ns_dec": decoder_box_value(probs, 2, 2)}
    expect.update(compact_ns_values(probs, 2, 2), **brute_force_values(probs, 2, 2))
    return Instance(f"{i}:{args[0]}-{'x'.join(map(str, shape))}", "cli", args, path, expect)


def _solve_exact(seed: int, i: int, work: Path) -> Instance:
    ch = random_dyadic_channel(2, 2, 2, seed=[seed, i // 2])
    path = _write(ch, work / f"c{i}.json")
    which = ("ns", "ns-sum")[i % 2]
    key = ("S_ns", "S_ns_sum")[i % 2]
    args = ["solve", path, "--which", which, "--exact", "--k1", "2", "--k2", "2", "--verify"]
    return Instance(f"{i}:{which}-2x2x2", "cli", args, path,
                    {key: compact_ns_values(ch.probs, 2, 2)[key]})


def _det_cli(seed: int, i: int, work: Path) -> Instance:
    shape, k = DET_SHAPES[i % len(DET_SHAPES)]
    ch = random_deterministic_channel(*shape, seed=[seed, i])
    path = _write(ch, work / f"c{i}.json")
    ks = ["--k1", str(k), "--k2", str(k), "--verify"]
    if shape[0] > 100:
        args, expect = ["approx", path, "--seed", str(i)] + ks, {}
    else:
        args = ["solve", path, "--which", "joint", "sum"] + ks
        expect = deterministic_values(ch.pairs, shape[1], shape[2], k, k)
    return Instance(f"{i}:{args[0]}-{'x'.join(map(str, shape))}-k{k}", "cli", args, path,
                    expect)


def _approx(seed: int, i: int, work: Path) -> Instance:
    nx, k = APPROX_SHAPES[i % len(APPROX_SHAPES)]
    ch = random_deterministic_channel(nx, 1000, 1000, seed=[seed, i])
    path = _write(ch, work / f"c{i}.json")
    return Instance(f"{i}:approx-{nx}x1000x1000-k{k}", "approx",
                    [path, str(k), str(k), str(seed * 1000 + i)], path)


MAKE_INSTANCE = {"solve-dense": _solve_dense, "solve-exact": _solve_exact,
                 "det-cli": _det_cli, "approx": _approx}


def main(argv: list[str]) -> int:
    workload, seed, size, work = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    work.mkdir(parents=True, exist_ok=True)
    corpus = [MAKE_INSTANCE[workload](seed, i, work) for i in range(size)]
    (work / "corpus.json").write_text(json.dumps([asdict(inst) for inst in corpus]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))


