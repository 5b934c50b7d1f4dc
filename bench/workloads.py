"""Seeded request lists for the four benchmark workloads, and how to run one.

A request is plain data: CLI requests carry the argv handed to
``spinpaths.cli.main``; the two observables without a subcommand
(``pinning_distribution`` and ``estimate_crossing``) carry the arguments of
a public package call.  Every list is stratified: each workload has a fixed
set of size slots, and the seed only jitters shapes, offsets, schemes' free
parameters and which exact q a slot gets.  Two seeds therefore ask for the
same amount of work in different shapes, which keeps run-to-run spread small
while still changing every input.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction

import spinpaths
from spinpaths import cli

Q_VALUES = ("3/10", "1/2", "4/5")


@dataclass(frozen=True)
class Request:
    """One benchmark request.

    ``kind`` names the validator.  ``argv`` is the CLI argument list; it is
    empty for the API requests ``pinning`` and ``estimate``.  ``params``
    holds what the validator (and an API call) needs to know.
    """

    kind: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one request produced: exit code, captured text, API value."""

    code: int | str
    stdout: str = ""
    stderr: str = ""
    value: object = None

    def digest(self) -> tuple:
        return (self.code, self.stdout, self.stderr, repr(self.value))


def execute(request: Request) -> Outcome:
    """Run one request in process.

    CLI requests go through ``cli.main`` with stdout and stderr captured;
    argparse usage errors raise SystemExit inside it and are caught here.
    Names are looked up at call time so a tracer's patches take effect.
    """
    if request.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(request.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return Outcome(code, out.getvalue(), err.getvalue())
    p = request.params
    if request.kind == "pinning":
        inst = spinpaths.PinnedInstance(K=p["K"], L=p["L"], N=p["N"])
        return Outcome(0, value=spinpaths.pinning_distribution(inst, Fraction(p["q"])))
    if request.kind == "estimate":
        state = spinpaths.SamplerState(spinpaths.scheme_from_name(p["scheme"]),
                                       spinpaths.Point(*p["start"]), spinpaths.Point(*p["end"]),
                                       Fraction(p["q"]), p["seed"])
        return Outcome(0, value=spinpaths.estimate_crossing(
            state, spinpaths.Point(*p["point"]), p["samples"]))
    raise ValueError(f"unknown API request kind {request.kind!r}")


# -- request constructors ------------------------------------------------------


def _pt(point: tuple[int, int]) -> str:
    return f"{point[0]},{point[1]}"


def _shape(rng: random.Random, total: int) -> tuple[int, int]:
    """Two sides summing to ``total``, within one of the square."""
    a = total // 2 + rng.randint(-1, 1)
    return a, total - a


def _rectangle(rng: random.Random, total: int, shift: int = 3):
    """A near-square rectangle of half-perimeter ``total``, translated by up to
    ``shift`` in each direction (interface weights only shift exponents then)."""
    start = (rng.randint(-shift, shift), rng.randint(-shift, shift))
    di, dj = _shape(rng, total)
    return start, (start[0] + di, start[1] + dj)


def partition_request(scheme: str, start: tuple[int, int], end: tuple[int, int],
                      K: int | None = None, L: int | None = None) -> Request:
    argv = ["partition", "--scheme", scheme]
    if K is not None:
        argv += ["-K", str(K), "-L", str(L)]
    # a negative point must be glued to its flag: '--from -3,-4' is a usage error
    argv += [f"--from={_pt(start)}", f"--to={_pt(end)}"]
    return Request("partition", tuple(argv), {"start": start, "end": end})


def correlate_request(start: tuple[int, int], end: tuple[int, int],
                      through: list[tuple[int, int]], q: str | None) -> Request:
    argv = ["correlate", "--scheme", "interface", f"--from={_pt(start)}", f"--to={_pt(end)}"]
    argv += [f"--through={_pt(w)}" for w in through]
    if q is not None:
        argv += ["--q", q]
    return Request("correlate", tuple(argv),
                   {"start": start, "end": end, "through": tuple(through), "q": q})


def sample_request(scheme: str, start: tuple[int, int], end: tuple[int, int],
                   q: str, seed: int, n: int) -> Request:
    argv = ("sample", "--scheme", scheme, f"--from={_pt(start)}", f"--to={_pt(end)}",
            "--q", q, "--seed", str(seed), "--n", str(n))
    return Request("sample", argv, {"start": start, "end": end, "n": n})


def _waypoints(rng: random.Random, start: tuple[int, int], end: tuple[int, int],
               count: int) -> list[tuple[int, int]]:
    """``count`` waypoints in order, near the rectangle's diagonal."""
    out = []
    di, dj = end[0] - start[0], end[1] - start[1]
    for k in range(1, count + 1):
        prev = out[-1] if out else start
        i = start[0] + di * k // (count + 1) + rng.randint(-1, 1)
        j = start[1] + dj * k // (count + 1) + rng.randint(-1, 1)
        out.append((min(max(i, prev[0]), end[0]), min(max(j, prev[1]), end[1])))
    return out


def _rep2_rectangle(rng: random.Random, total: int):
    """A rep2 rectangle of half-perimeter ``total`` starting at a negative point.

    The origin sits near the middle, so the |i+j| weights fold there.
    """
    di, dj = _shape(rng, total)
    a = di // 2 + rng.randint(-1, 1)
    b = dj // 2 + rng.randint(-1, 1)
    return (-a, -b), (di - a, dj - b)


def _instance(rng: random.Random, sites: int) -> tuple[int, int, int]:
    """(K, L, N) on ``sites`` sites with K and L near equal and N near half."""
    K = (sites - 1) // 2 + rng.randint(-1, 1)
    N = sites // 2 + rng.randint(-1, 1)
    return K, sites - 1 - K, N


# -- workloads -------------------------------------------------------------------
#
# Each workload is a fixed list of slots (kind and size); the seed only picks
# shapes, translations and free parameters that leave a slot's cost nearly
# unchanged.  Different seeds thus ask different questions of the same size,
# so medians and percentiles from two seeds compare the same work.


def symbolic(rng: random.Random) -> list[Request]:
    """Exact polynomials only: sweeps, closed forms, conditioned partitions."""
    reqs = []
    for k, total in enumerate(range(12, 64, 2)):
        kind = k % 5
        if kind == 0:
            reqs.append(partition_request("interface", *_rectangle(rng, total)))
        elif kind == 1:
            n, m = _shape(rng, total)
            reqs.append(Request("closed-form", ("closed-form", "-n", str(n), "-m", str(m)),
                                {"start": (0, 0), "end": (n, m)}))
        elif kind == 2:
            reqs.append(partition_request("rep2", *_rep2_rectangle(rng, total)))
        elif kind == 3:
            K, L, _ = _instance(rng, total)   # rep1 needs N + M = K + L + 1
            reqs.append(partition_request("rep1", (0, 0), _shape(rng, total), K=K, L=L))
        else:
            start, end = _rectangle(rng, total)
            reqs.append(correlate_request(start, end, _waypoints(rng, start, end, 1 + k % 2),
                                          None))
    rng.shuffle(reqs)
    return reqs


def fixed_q(rng: random.Random) -> list[Request]:
    """Observables at an exact rational q: tables of polynomials evaluated per cell."""
    reqs = []
    for q in Q_VALUES:
        for sites in (9, 13, 17, 21):
            K, L, N = _instance(rng, sites)
            reqs.append(Request("profile", ("profile", "-K", str(K), "-L", str(L),
                                            "-N", str(N), "--q", q),
                                {"K": K, "L": L, "N": N, "q": q}))
        for total in (20, 30, 40):
            start, end = _rectangle(rng, total)
            reqs.append(correlate_request(start, end, _waypoints(rng, start, end, 1), q))
        for total in (12, 16, 20):
            start, end = _rectangle(rng, total)
            reqs.append(sample_request("interface", start, end, q, rng.randrange(2**32), 5))
        for sites in (13, 19, 25):
            K, L, N = _instance(rng, sites)
            reqs.append(Request("pinning", (), {"K": K, "L": L, "N": N, "q": q}))
    rng.shuffle(reqs)
    return reqs


def _likeliest_crossing(scheme: str, start: tuple[int, int], end: tuple[int, int],
                        q: float, radius: int) -> tuple[int, int]:
    """The point at ``radius`` steps from ``start`` that paths cross most often.

    A float sweep of the benchmark's own, used only to pick a point whose
    crossing probability is far from 0 and 1, so that the 5-stderr check
    on ``estimate_crossing`` is meaningful.  Horizontal bonds weigh
    q^(2(i+j)) (interface) or q^(2|i+j|) (rep2) at their head.
    """
    def w(i, j):
        s = i + j
        return q ** (2 * (s if scheme == "interface" else abs(s)))

    (i0, j0), (i1, j1) = start, end
    fwd: dict[tuple[int, int], float] = {}
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            fwd[i, j] = 1.0 if (i, j) == start else (
                fwd.get((i - 1, j), 0.0) * w(i, j) + fwd.get((i, j - 1), 0.0))
    bwd: dict[tuple[int, int], float] = {}
    for i in range(i1, i0 - 1, -1):
        for j in range(j1, j0 - 1, -1):
            bwd[i, j] = 1.0 if (i, j) == end else (
                bwd.get((i + 1, j), 0.0) * w(i + 1, j) + bwd.get((i, j + 1), 0.0))
    cands = [(i0 + a, j0 + radius - a) for a in range(radius + 1)
             if i0 + a <= i1 and j0 + radius - a <= j1]
    return max(cands, key=lambda p: fwd[p] * bwd[p])


def sampling(rng: random.Random) -> list[Request]:
    """Draw-heavy requests on small rectangles, where the table is cheap."""
    reqs = []
    for q in Q_VALUES:
        for k, total in enumerate((8, 10, 12, 14)):
            if k % 2:
                scheme, (start, end) = "rep2", _rep2_rectangle(rng, total)
            else:
                scheme, (start, end) = "interface", _rectangle(rng, total, shift=2)
            reqs.append(sample_request(scheme, start, end, q, rng.randrange(2**32), 2000))
        for k, total in enumerate((10, 12, 14, 16)):
            if k % 2:
                scheme, (start, end) = "rep2", _rep2_rectangle(rng, total)
            else:
                scheme, (start, end) = "interface", ((0, 0), _shape(rng, total))
            point = _likeliest_crossing(scheme, start, end, float(Fraction(q)),
                                        total // 2 + rng.randint(-1, 1))
            reqs.append(Request("estimate", (), {
                "scheme": scheme, "start": start, "end": end, "q": q, "point": point,
                "seed": rng.randrange(2**32), "samples": 100_000}))
    rng.shuffle(reqs)
    return reqs


def identity_grid(rng: random.Random) -> list[Request]:
    """Many small instances: identity suite, brute-force norms, the dense oracle.

    Sector sizes comb(sites, N) are fixed per slot; the seed picks N or
    sites - N (same size) and where the pin sits.
    """
    reqs = []
    for grid in (rng.choice([(0, 1), (1, 0)]), (1, 1), rng.choice([(2, 1), (1, 2)])):
        reqs.append(Request("verify", ("verify", "--max-K", str(grid[0]),
                                       "--max-L", str(grid[1])),
                            {"max_K": grid[0], "max_L": grid[1]}))
    slots = [("norm", s, n) for s in range(5, 13) for n in (1, s // 3, s // 2)]
    slots += [("hamiltonian", s, s // 2) for s in (6, 8, 9, 10, 11, 12, 14)]
    for kind, sites, n in slots:
        K = rng.randint(0, sites - 1) if kind == "norm" else rng.randint(1, sites - 2)
        N = rng.choice((n, sites - n))
        L = sites - 1 - K
        reqs.append(Request(kind, (kind, "-K", str(K), "-L", str(L), "-N", str(N)),
                            {"K": K, "L": L, "N": N}))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "symbolic": symbolic,
    "fixed_q": fixed_q,
    "sampling": sampling,
    "identity_grid": identity_grid,
}


def build(name: str, seed: int) -> list[Request]:
    """The request list of workload ``name`` for ``seed``; same seed, same list."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
