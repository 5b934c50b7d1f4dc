"""Batch command-line front door.

Subcommands: partition, closed-form, correlate, profile, norm, verify,
sample, hamiltonian.  Exact values are emitted as JSON with decimal-string
numerators/denominators/coefficients; any decimal rendering alongside is
advisory only.  Exit codes: 0 success, 1 failed identity (in a report or
an internal check), 2 usage error (including q = 0 where a weight or value
has a negative power of q), a request refused up front as too large, or a
request that ran out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import correlations, partition, sampler, spin
from .lattice import Point
from .qpoly import LaurentPoly, ZeroToNegativePower, text_form
from .spin import PinnedInstance
from .weights import scheme_from_name

SCHEMA_POLY = "spinpaths/polynomial/1"
SCHEMA_REPORT = "spinpaths/report/1"
SCHEMA_PROFILE = "spinpaths/profile/1"
SCHEMA_PROBABILITY = "spinpaths/probability/1"
SCHEMA_SAMPLE = "spinpaths/sample-summary/1"
SCHEMA_RESIDUAL = "spinpaths/residual/1"

_quote = json.encoder.encode_basestring_ascii   # json.dumps(s) for a str s


class UsageError(ValueError):
    pass


def parse_point(text: str) -> Point:
    raw = text.strip().lstrip("(").rstrip(")")
    try:
        i_s, j_s = raw.split(",")
        return Point(int(i_s), int(j_s))
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}; expected 'i,j'") from exc


def parse_rational(text: str) -> Fraction:
    """Exact rational literal 'p/r' or integer; floating literals are rejected."""
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise UsageError(f"{text!r} is not an exact rational; write it as p/r")
    try:
        if "/" in cleaned:
            num, den = cleaned.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(cleaned))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}") from exc


def rational_json(value: Fraction) -> dict:
    return {"numerator": str(value.numerator), "denominator": str(value.denominator),
            "decimal": float(value)}


def _scheme(args) -> object:
    return scheme_from_name(args.scheme, K=args.K, L=args.L)


# -- subcommand handlers ----------------------------------------------------


def _poly(p: LaurentPoly, pad: str) -> str:
    """p's spinpaths/polynomial/1 object at the indent pad; each coefficient
    is turned into a string once, for both "terms" and "text"."""
    terms = [(e, str(c)) for e, c in p.items()]
    one, two = pad + "  ", pad + "    "
    body = "{" + two + ("," + two).join([f'"{e}": "{c}"' for e, c in terms]) + one + "}" \
        if terms else "{}"
    return (f'{{{one}"schema": "{SCHEMA_POLY}",{one}"terms": {body},'
            f'{one}"text": "{text_form(terms)}"{pad}}}')


def _write(obj, pad: str, write, poly, head: str = "") -> None:
    """Write head, then obj at the indent pad: a LaurentPoly as poly(obj, pad),
    a Fraction as its string, a nonempty dict (str keys), list or tuple item
    by item, any other value as json.dumps renders it."""
    if isinstance(obj, (dict, list, tuple)) and obj:
        inner = pad + "  "
        if isinstance(obj, dict):
            brackets, items = "{}", [(_quote(k) + ": ", v) for k, v in obj.items()]
        else:
            brackets, items = "[]", [("", v) for v in obj]
        sep = head + brackets[0] + inner
        for key, v in items:
            _write(v, inner, write, poly, sep + key)
            sep = "," + inner
        write(pad + brackets[1])
    elif isinstance(obj, LaurentPoly):
        write(head + poly(obj, pad))
    elif isinstance(obj, str):
        write(head + _quote(obj))
    elif type(obj) is int:   # the int repr json.dumps returns, with no encoder built
        write(head + repr(obj))
    elif isinstance(obj, Fraction):
        write(f'{head}"{obj}"')
    else:
        write(head + json.dumps(obj))


def _emit(obj, poly=_poly) -> None:
    """Stream obj to stdout as the bytes of print(json.dumps(obj, indent=2)),
    where each LaurentPoly reads as its spinpaths/polynomial/1 object.  The
    caller computes every value first, so a failure still prints nothing."""
    _write(obj, "\n", sys.stdout.write, poly)
    sys.stdout.write("\n")


def emit_poly(value: LaurentPoly, fmt: str) -> None:
    if fmt == "text":
        print(value)
    else:
        _emit(value)


def cmd_partition(args) -> int:
    scheme = _scheme(args)
    start = parse_point(args.frm)
    end = parse_point(args.to)
    emit_poly(partition.partition_dp(scheme, start, end), args.format)
    return 0


def cmd_closed_form(args) -> int:
    emit_poly(partition.interface_closed_form(args.n, args.m), args.format)
    return 0


def cmd_correlate(args) -> int:
    scheme = _scheme(args)
    query = correlations.CorrelationQuery(
        scheme=scheme,
        start=parse_point(args.frm),
        end=parse_point(args.to),
        waypoints=tuple(parse_point(t) for t in args.through),
    )
    out = {"schema": SCHEMA_PROBABILITY,
           "conditioned": correlations.conditioned_partition(query)}
    if args.q is not None:
        q0 = parse_rational(args.q)
        out["q"] = str(q0)
        out["probability"] = rational_json(correlations.crossing_probability(query, q0))
    _emit(out)
    return 0


def cmd_profile(args) -> int:
    inst = PinnedInstance(K=args.K, L=args.L, N=args.N)
    q0 = parse_rational(args.q)
    profile = correlations.magnetization_profile(inst, q0)
    if args.format == "json":
        rows = [{"site": x, **rational_json(p)} for x, p in profile]
        _emit({"schema": SCHEMA_PROFILE, "K": args.K, "L": args.L, "N": args.N,
               "q": str(q0), "sites": rows})
    else:
        # CSV column order: site, numerator, denominator, decimal
        print("site,numerator,denominator,decimal")
        for x, p in profile:
            print(f"{x},{p.numerator},{p.denominator},{float(p)!r}")
    return 0


def cmd_norm(args) -> int:
    emit_poly(spin.norm_squared(args.L, args.K, args.N), args.format)
    return 0


def cmd_sample(args) -> int:
    scheme = _scheme(args)
    q0 = parse_rational(args.q)
    start = parse_point(args.frm)
    state = sampler.SamplerState(scheme, start, parse_point(args.to), q0, args.seed)
    distinct: set[str] = set()
    prefix = f"{start}:"
    # one call even for --n <= 0, so the kernel's own check rejects a negative count
    for done in range(0, max(args.n, 1), sampler.BLOCK):
        words = sampler.sample_words(state, min(sampler.BLOCK, args.n - done))
        distinct.update(words)
        if words:
            sys.stdout.write(prefix + f"\n{prefix}".join(words) + "\n")
    summary = {"schema": SCHEMA_SAMPLE, "n": args.n, "seed": args.seed,
               "scheme": args.scheme, "q": str(q0), "distinct": len(distinct)}
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_hamiltonian(args) -> int:
    if args.config is not None:
        word = args.config.strip()
        sites = PinnedInstance(K=args.K, L=args.L, N=0).sites   # checks K and L first
        if len(word) != sites or any(c not in "01" for c in word):
            raise UsageError(f"--config must be a 0/1 word of length {sites}")
        config = spin.SpinConfig(args.L, args.K, tuple(int(c) for c in word))
        if args.N is not None and args.N != config.down_count:
            raise UsageError(f"-N {args.N} disagrees with --config, which has "
                             f"{config.down_count} down spins")
        if args.q0 is not None:
            raise UsageError("--q0 is for the Hamiltonian oracle; --config takes no q")
        out = {"schema": SCHEMA_POLY, "L": args.L, "K": args.K,
               "config": word, "down_spins": config.down_count,
               "amplitude": spin.amplitude(config)}
        _emit(out)
        return 0
    if args.N is None:
        raise UsageError("hamiltonian needs -N (or --config)")
    q0 = 0.5 if args.q0 is None else args.q0
    oracle = spin.build_hamiltonian(args.L, args.K, args.N, q0)
    residual = spin.verify_ground_state(oracle)
    ok = residual <= 1e-10
    _emit({"schema": SCHEMA_RESIDUAL, "L": args.L, "K": args.K, "N": args.N, "q0": q0,
           "dimension": oracle.dimension, "residual": residual, "holds": ok})
    return 0 if ok else 1


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    q_values = [parse_rational(t) for t in (args.q or ["3/10", "1/2", "4/5"])]
    # without --full the suite keeps only the failing entries, all the report shows
    checked, entries = partition.identity_suite(args.max_K, args.max_L, q_values, args.full)
    failures = [e for e in entries if not e["holds"]]
    summary = {name: {"checked": count, "failed": sum(e["identity"] == name for e in failures)}
               for name, count in sorted(checked.items())}
    out = {"schema": SCHEMA_REPORT, "max_K": args.max_K, "max_L": args.max_L,
           "q": [str(q) for q in q_values], "summary": summary,
           "all_hold": not failures}
    if args.full:
        out["entries"] = entries
    else:
        out["failures"] = failures
    # sides repeat (20 702 at 12x12 hold 1 220 distinct values): render each once
    _emit(out, functools.cache(_poly))
    return 1 if failures else 0


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spinpaths",
        description="Exact lattice-path partition functions, correlations, and "
                    "ground-state cross-checks for the pinned chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme(p):
        p.add_argument("--scheme", choices=["interface", "rep1", "rep2"],
                       required=True, help="weight scheme")
        p.add_argument("-K", type=int, default=None, help="chain extent right of the pin (rep1)")
        p.add_argument("-L", type=int, default=None, help="chain extent left of the pin (rep1)")

    def add_points(p):
        p.add_argument("--from", dest="frm", default="0,0",
                       help="start point 'i,j' (default 0,0); write a negative one --from=-3,-4")
        p.add_argument("--to", dest="to", required=True,
                       help="end point 'i,j'; write a negative one --to=-1,-2")

    def add_format(p):
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("partition", help="partition function of a rectangle")
    add_scheme(p)
    add_points(p)
    add_format(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("closed-form", help="interface closed form at (n, m)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("correlate", help="conditioned partition and crossing probability")
    add_scheme(p)
    add_points(p)
    p.add_argument("--through", action="append", default=[],
                   help="waypoint 'i,j' (repeatable); write a negative one --through=-1,0")
    p.add_argument("--q", default=None, help="rational q as 'p/r'")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("profile", help="per-site down-spin probabilities of the ground state")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--q", required=True, help="rational q as 'p/r'")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("norm", help="squared norm of the sector ground state")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("verify", help="run the identity suite over a (K, L) grid")
    p.add_argument("--max-K", type=int, default=3)
    p.add_argument("--max-L", type=int, default=3)
    p.add_argument("--q", action="append", default=None,
                   help="rational q (repeatable; default 3/10, 1/2, 4/5)")
    p.add_argument("--full", action="store_true", help="emit every entry, not just failures")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="draw paths from the exact measure")
    add_scheme(p)
    add_points(p)
    p.add_argument("--q", required=True, help="rational q as 'p/r'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("hamiltonian", help="ground-state residual or config amplitude")
    p.add_argument("-K", type=int, required=True)
    p.add_argument("-L", type=int, required=True)
    p.add_argument("-N", type=int, default=None)
    p.add_argument("--q0", type=float, default=None,
                   help="numeric q for the Hamiltonian oracle (default 0.5)")
    p.add_argument("--config", default=None, help="0/1 word over sites -L..K")
    p.set_defaults(func=cmd_hamiltonian)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Exact answers may run past the interpreter's limit
    on int/str conversion (4 300 digits by default), so it is lifted while
    the command runs and restored afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, ZeroToNegativePower) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except partition.InternalIdentityFailure as exc:
        print(f"error: internal identity failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
