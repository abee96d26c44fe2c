"""The benchmark's workloads: inputs made from the seed, the operations
that call the public sliceobs API, and the checks on their outputs.

An operation is one call a user would make: the CLI's ``obstruct --json``,
``obstruct`` itself, or one knot's cover homology and Alexander square.
Its ``call`` is what is timed; ``extract`` turns the result into plain
data outside the timer, and ``check`` lists what is wrong with that data.
Checks never take expected values from the package: the table and the
q = 5 homology are compared with copies stored under ``expected/``, and
the sweep is checked by recomputing what it claims.

Why each workload exists (see README.md for the layer map):

- ``table``: the paper's table plus n = 29 at s = 59, each knot cold.
  What reproducing the paper costs; dominated by the Blanchfield
  determinants.
- ``exhaustive``: every character (n + 1) of n = 11 and 17, each knot
  cold.  Dominated by the twisted polynomial (``det_gf``).
- ``sweep``: a witness search in one warm process, 12 seeded (s, theta)
  pairs over two knots, s up to 2^31.  The only workload that repeats n,
  so per-n reuse shows here alone; large s loads the factorization.
- ``invariants``: cover homology by Smith form and the Alexander square
  for n = 11 .. 29.  The only workload that runs the Smith form,
  ``alexander_polynomial`` and ``p_n``.
"""

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import sliceobs  # noqa: E402
import sliceobs.cli  # noqa: E402

TABLE = ((11, None), (17, None), (23, None), (29, 59))
EXHAUSTIVE_N = (11, 17)
SWEEP_N = (11, 17)
SWEEP_PER_N = 6
SWEEP_S_MAX = 2 ** 31
INVARIANT_N = (11, 17, 23, 29)


@dataclass(frozen=True)
class Op:
    """One timed call into the program."""
    label: str                    # the knot; per-label medians are reported
    results: int                  # characters or invariants the call yields
    call: Callable[[], object]    # timed
    extract: Callable[[object], object]   # to plain data, untimed
    check: Callable[[object], list]       # problems in the plain data


@dataclass(frozen=True)
class Workload:
    cold: bool    # each operation runs in a fresh fork of the set-up process
    ops: tuple    # one pass
    inputs: object    # JSON-able description of what the seed produced


def _expected_text(name):
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as f:
        return f.read()


def _table_file(n, s):
    return f"obstruct-n{n}.json" if s is None else f"obstruct-n{n}-s{s}.json"


# -- table --------------------------------------------------------------------


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = sliceobs.cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, buf.getvalue()


def _table_op(n, s):
    argv = ["obstruct", "--n", str(n), "--json"]
    if s is not None:
        argv += ["--s", str(s)]
    expected = _expected_text(_table_file(n, s)).encode()

    def check(out):
        code, text = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if text.encode() != expected:
            problems.append(
                f"output differs from expected/{_table_file(n, s)}")
        return problems

    return Op(f"n{n}", 2, lambda: _cli(argv), lambda out: out, check)


# -- exhaustive ---------------------------------------------------------------


def _reports(reports):
    return [r.to_dict() for r in reports]


def _exhaustive_op(n):
    rows = json.loads(_expected_text(_table_file(n, None)))
    for row in rows:
        row["characters_checked"] = n + 1

    def check(out):
        return [] if out == rows else [
            f"exhaustive n={n} differs from the table rows with "
            f"characters_checked={n + 1}"]

    return Op(f"n{n}", n + 1,
              lambda: sliceobs.obstruct(n, exhaustive=True), _reports, check)


# -- sweep --------------------------------------------------------------------


def is_prime(m):
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 suffice below
    3.2e9.  The benchmark makes its inputs without the program's code."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7):
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_1_mod(n, x):
    """The smallest prime s = 1 mod n with s >= x, or the largest one below
    x when that would pass SWEEP_S_MAX."""
    k = max(1, math.ceil((x - 1) / n))
    step = 1
    if k * n + 1 >= SWEEP_S_MAX:
        k, step = (SWEEP_S_MAX - 2) // n, -1
    while not is_prime(k * n + 1):
        k += step
    return k * n + 1


def sweep_witnesses(seed):
    """SWEEP_PER_N (n, s, theta) triples per knot: s a prime = 1 mod n drawn
    log-uniformly between n and 2^31, one draw in each of SWEEP_PER_N
    equal slices of log s so that every seed gets a like spread of field
    sizes; theta a random element of order n mod s.  Shuffled."""
    rng = random.Random(f"sweep:{seed}")
    out = []
    for n in SWEEP_N:
        lo, hi = math.log(n), math.log(SWEEP_S_MAX)
        for k in range(SWEEP_PER_N):
            x = math.exp(lo + (k + rng.random()) * (hi - lo) / SWEEP_PER_N)
            s = _prime_1_mod(n, x)
            theta = 1
            while theta == 1:
                theta = pow(rng.randrange(2, s - 1), (s - 1) // n, s)
            out.append((n, s, theta))
    rng.shuffle(out)
    return out


def poly_mul(a, b, s=None):
    """Product of ascending coefficient lists, over Z or mod s."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out if s is None else [c % s for c in out]


def half_sum_unreachable(degrees):
    """No sub-multiset of the degrees sums to half their total."""
    total = sum(degrees)
    reach = {0}
    for d in degrees:
        reach |= {r + d for r in reach}
    return total // 2 not in reach


def check_sweep_rows(rows, n, s, theta):
    """Recompute what each report claims about its own factorization."""
    problems = []
    verdict_ok = True
    for row in rows:
        tag = f"n={n} s={s} chi{row['sign']}"
        if (row["n"], row["s"], row["theta"]) != (n, s, theta):
            problems.append(f"{tag}: witness {row['s']}, {row['theta']}")
        product = [1]
        for f in row["factors"]:
            if f[-1] != 1 or not sliceobs.is_irreducible(f, s):
                problems.append(f"{tag}: factor {f} not monic irreducible")
            product = poly_mul(product, f, s)
        if product != row["polynomial"]:
            problems.append(f"{tag}: factors do not multiply back")
        degs = sorted(len(f) - 1 for f in row["factors"])
        total = sum(degs)
        if (row["degree_sequence"] != degs or row["total_degree"] != total
                or row["target_degree"] != 2 * (n - 2)
                or row["degree_check"] != (total == 2 * (n - 2))):
            problems.append(f"{tag}: degree count inconsistent")
        obstructed = total % 2 == 1 or half_sum_unreachable(degs)
        if row["norm_obstructed"] != obstructed:
            problems.append(f"{tag}: norm_obstructed is not {obstructed}")
        if (row["metabolizer_count"], row["orbit_sizes"],
                row["characters_checked"]) != (n + 1, [1, n], 2):
            problems.append(f"{tag}: metabolizer census")
        verdict_ok = verdict_ok and row["degree_check"] and obstructed
    want = "not slice" if verdict_ok else "inconclusive"
    if any(row["verdict"] != want for row in rows) or len(rows) != 2:
        problems.append(f"n={n} s={s}: verdict is not {want!r}")
    return problems


def _sweep_op(n, s, theta):
    return Op(f"n{n}", 2,
              lambda: sliceobs.obstruct(n, s=s, theta=theta), _reports,
              lambda rows: check_sweep_rows(rows, n, s, theta))


# -- invariants ---------------------------------------------------------------


def _normalized(coeffs):
    """Dense ascending coefficients with the unit +-t^k removed."""
    lo, hi = min(coeffs), max(coeffs)
    dense = [coeffs.get(e, 0) for e in range(lo, hi + 1)]
    return [-c for c in dense] if dense[-1] < 0 else dense


def _invariants_call(n):
    return (sliceobs.cover_homology_snf(n, 2),
            sliceobs.cover_homology_snf(n, 3),
            sliceobs.cover_homology_snf(n, 5),
            sliceobs.alexander_polynomial(n),
            sliceobs.p_n(n))


def _invariants_extract(out):
    h2, h3, h5, alex, pn = out
    return (list(h2.invariants), list(h3.invariants), list(h5.invariants),
            dict(alex.items()), dict(pn.items()))


def _invariants_op(n, q5):
    def check(out):
        h2, h3, h5, alex, pn = out
        problems = []
        if [d for d in h3 if d != 1] != [n] * 4:
            problems.append(f"n={n}: H_1 of the 3-fold cover is not (Z/{n})^4")
        order = math.prod(d for d in h2 if d != 1)
        at_minus_one = sum(c * (-1) ** e for e, c in alex.items())
        if order != abs(at_minus_one) or 0 in h2:
            problems.append(f"n={n}: |H_1| of the double cover != |Delta(-1)|")
        if h5 != q5:
            problems.append(f"n={n}: q=5 invariants differ from "
                            f"expected/homology-q5.json")
        dense = _normalized(pn)
        if _normalized(alex) != poly_mul(dense, dense):
            problems.append(f"n={n}: Alexander polynomial is not p_n^2")
        return problems

    return Op(f"n{n}", 4, lambda: _invariants_call(n), _invariants_extract,
              check)


# -- the workloads ------------------------------------------------------------


def build(name, seed):
    """The workload ``name`` for ``seed``."""
    if name == "table":
        return Workload(True, tuple(_table_op(n, s) for n, s in TABLE),
                        [{"n": n, "s": s} for n, s in TABLE])
    if name == "exhaustive":
        return Workload(True,
                        tuple(_exhaustive_op(n) for n in EXHAUSTIVE_N),
                        [{"n": n, "exhaustive": True} for n in EXHAUSTIVE_N])
    if name == "sweep":
        wit = sweep_witnesses(seed)
        return Workload(False, tuple(_sweep_op(*w) for w in wit),
                        [{"n": n, "s": s, "theta": t} for n, s, t in wit])
    if name == "invariants":
        q5 = json.loads(_expected_text("homology-q5.json"))
        return Workload(True,
                        tuple(_invariants_op(n, q5[str(n)])
                              for n in INVARIANT_N),
                        [{"n": n, "q": [2, 3, 5], "alexander": True}
                         for n in INVARIANT_N])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("table", "exhaustive", "sweep", "invariants")
