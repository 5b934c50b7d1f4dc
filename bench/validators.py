"""Output checks that do not trust the implementation.

Each check reads only the request and what it produced, and returns None
when the output is right or a one-line reason when it is not.  The facts
used are independent of how spinpaths computes: every bond weight is 1 at
q = 1, so a partition polynomial's coefficients sum to the number of paths;
probabilities are exact and bounded; a sample is a list of paths with the
requested endpoints.  The one exception is ``estimate``, which is compared
with the package's exact ``crossing_probability`` (the two share the sweep,
not the draw).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import spinpaths
from workloads import Outcome, Request

PATH_RE = re.compile(r"\((-?\d+),(-?\d+)\):([HV]*)")


def _paths(start, end) -> int:
    di, dj = end[0] - start[0], end[1] - start[1]
    return math.comb(di + dj, di) if di >= 0 and dj >= 0 else 0


def _poly_sum(obj: dict) -> tuple[int, bool]:
    """Coefficient sum of a polynomial JSON object, and whether all are positive."""
    coeffs = [int(c) for c in obj["terms"].values()]
    return sum(coeffs), all(c > 0 for c in coeffs)


def _exact(num: str, den: str) -> Fraction:
    value = Fraction(int(num), int(den))
    if value.denominator != int(den) or int(den) <= 0:
        raise ValueError(f"{num}/{den} is not in lowest terms")
    return value


def check_poly(request: Request, out: Outcome) -> str | None:
    """partition and closed-form: positive coefficients summing to C(n+m, n)."""
    total, positive = _poly_sum(json.loads(out.stdout))
    want = _paths(request.params["start"], request.params["end"])
    if total != want:
        return f"coefficient sum {total} != {want} paths"
    return None if positive else "nonpositive coefficient"


def check_correlate(request: Request, out: Outcome) -> str | None:
    p = request.params
    doc = json.loads(out.stdout)
    stops = [p["start"], *p["through"], p["end"]]
    want = math.prod(_paths(a, b) for a, b in zip(stops, stops[1:]))
    total, _ = _poly_sum(doc["conditioned"])
    if total != want:
        return f"conditioned coefficient sum {total} != {want} paths"
    if p["q"] is not None:
        prob = doc["probability"]
        value = _exact(prob["numerator"], prob["denominator"])
        if doc["q"] != str(Fraction(p["q"])) or not 0 <= value <= 1:
            return f"probability {value} at q={doc['q']} out of range"
    return None


def check_profile(request: Request, out: Outcome) -> str | None:
    """Exact per-site probabilities in [0, 1] for sites -L..K, summing to N."""
    p = request.params
    lines = out.stdout.strip().splitlines()
    if lines[0] != "site,numerator,denominator,decimal":
        return "missing CSV header"
    sites, total = [], Fraction(0)
    for line in lines[1:]:
        site, num, den, _ = line.split(",")
        value = _exact(num, den)
        if not 0 <= value <= 1:
            return f"probability {value} at site {site} out of range"
        sites.append(int(site))
        total += value
    if sites != list(range(-p["L"], p["K"] + 1)):
        return "profile sites do not cover -L..K"
    return None if total == p["N"] else f"profile sums to {total}, not N = {p['N']}"


def check_norm(request: Request, out: Outcome) -> str | None:
    p = request.params
    total, positive = _poly_sum(json.loads(out.stdout))
    want = math.comb(p["K"] + p["L"] + 1, p["N"])
    if total != want:
        return f"norm coefficient sum {total} != C(sites, N) = {want}"
    return None if positive else "nonpositive coefficient"


def expected_identity_counts(max_k: int, max_l: int, q_count: int = 3,
                             window: int = 2) -> dict[str, int]:
    """How many checks of each identity ``verify`` must report."""
    per_instance = rec1 = 0
    for K in range(max_k + 1):
        for L in range(max_l + 1):
            sites = K + L + 1
            for N in range(sites + 1):
                per_instance += 1
                rec1 += N >= 1 and sites - N >= 1
    pts = [(i, j) for i in range(-window, window + 1) for j in range(-window, window + 1)]
    tf = sum(1 for s in pts for e in pts for r in pts
             if e[0] >= s[0] and e[1] >= s[1] and r[0] <= s[0] and r[1] <= s[1])
    return {"TF": tf, "ave": q_count * per_instance, "norm-equality": per_instance,
            "pf": per_instance, "rec1": rec1, "rec2": per_instance}


def check_verify(request: Request, out: Outcome) -> str | None:
    doc = json.loads(out.stdout)
    if doc.get("all_hold") is not True:
        return "identity suite reports a failure"
    want = expected_identity_counts(request.params["max_K"], request.params["max_L"])
    got = {name: s["checked"] for name, s in doc["summary"].items()}
    if got != want:
        return f"identity check counts {got} != {want}"
    if any(s["failed"] for s in doc["summary"].values()):
        return "identity summary counts failures"
    return None


def check_hamiltonian(request: Request, out: Outcome) -> str | None:
    p = request.params
    doc = json.loads(out.stdout)
    want = math.comb(p["K"] + p["L"] + 1, p["N"])
    if doc.get("holds") is not True or not doc["residual"] <= 1e-10:
        return f"ground-state residual {doc.get('residual')} does not hold"
    return None if doc["dimension"] == want else f"dimension {doc['dimension']} != {want}"


def check_sample(request: Request, out: Outcome) -> str | None:
    """Exactly n parseable paths, each from --from to --to."""
    p = request.params
    lines = out.stdout.splitlines()
    if len(lines) != p["n"]:
        return f"{len(lines)} paths, expected {p['n']}"
    di, dj = p["end"][0] - p["start"][0], p["end"][1] - p["start"][1]
    for line in lines:
        m = PATH_RE.fullmatch(line)
        if m is None:
            return f"unparseable path {line!r}"
        steps = m.group(3)
        h = steps.count("H")
        if (int(m.group(1)), int(m.group(2))) != p["start"] or (h, len(steps) - h) != (di, dj):
            return f"path {line!r} does not run {p['start']} -> {p['end']}"
    summary = json.loads(out.stderr)
    return None if summary["n"] == p["n"] else "summary n mismatch"


def check_pinning(request: Request, out: Outcome) -> str | None:
    p = request.params
    M = p["K"] + p["L"] + 1 - p["N"]
    values = [v for _, v in out.value]
    if [n for n, _ in out.value] != list(range(max(0, p["K"] - M), min(p["K"], p["N"]) + 1)):
        return "pinning support is wrong"
    if any(not isinstance(v, Fraction) or not 0 <= v <= 1 for v in values):
        return "pinning probability not an exact value in [0, 1]"
    return None if sum(values) == 1 else f"pinning distribution sums to {sum(values)}"


def check_estimate(request: Request, out: Outcome) -> str | None:
    """Monte Carlo estimate within 5 standard errors of the exact probability."""
    p = request.params
    query = spinpaths.CorrelationQuery(
        spinpaths.scheme_from_name(p["scheme"]), spinpaths.Point(*p["start"]),
        spinpaths.Point(*p["end"]), (spinpaths.Point(*p["point"]),))
    exact = float(spinpaths.crossing_probability(query, Fraction(p["q"])))
    est, _ = out.value
    stderr = math.sqrt(exact * (1.0 - exact) / p["samples"])
    if abs(est - exact) > 5 * stderr:
        return f"estimate {est} is more than 5 stderr from exact {exact}"
    return None


CHECKS = {
    "partition": check_poly,
    "closed-form": check_poly,
    "correlate": check_correlate,
    "profile": check_profile,
    "norm": check_norm,
    "verify": check_verify,
    "hamiltonian": check_hamiltonian,
    "sample": check_sample,
    "pinning": check_pinning,
    "estimate": check_estimate,
}


def validate(request: Request, out: Outcome) -> str | None:
    """None when ``out`` is a correct answer to ``request``, else the reason."""
    if out.code != 0:
        return f"exit code {out.code}: {out.stderr.strip()[:200]}"
    try:
        return CHECKS[request.kind](request, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
