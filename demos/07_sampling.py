"""Monte Carlo as an independent witness: sample paths from the exact
measure and compare empirical frequencies with the exact layer.
"""

from fractions import Fraction

from spinpaths import (CorrelationQuery, InterfaceXXZ, PinnedRep1, Point,
                       SamplerState, crossing_probability, estimate_crossing,
                       sample_path, sample_paths)

origin, end = Point(0, 0), Point(1, 1)
q0 = Fraction(1, 2)
state = SamplerState(InterfaceXXZ(), origin, end, q0, seed=42)

n = 20000
counts = {"HV": 0, "VH": 0}
for path in sample_paths(state, n):
    counts[path.steps] += 1
print(f"unit square at q = {q0}: exact P(HV) = 4/5")
print(f"  observed over {n} samples: {counts['HV'] / n:.4f}")

scheme = PinnedRep1(K=2, L=2)
end = Point(2, 3)
state = SamplerState(scheme, origin, end, q0, seed=123)
print(f"\ncrossing estimates on the pinned ensemble {origin} -> {end}:")
print(f"{'point':>8s} {'exact':>10s} {'estimate':>10s} {'stderr':>9s}")
for idx, pt in enumerate([Point(1, 1), Point(2, 2), Point(1, 3)]):
    exact = crossing_probability(CorrelationQuery(scheme, origin, end, (pt,)), q0)
    est, se = estimate_crossing(state.substream(idx), pt, 50000)
    print(f"{str(pt):>8s} {float(exact):>10.4f} {est:>10.4f} {se:>9.4f}")

print("\nsame seed, same stream:")
again = SamplerState(InterfaceXXZ(), origin, Point(3, 3), q0, seed=7)
twice = SamplerState(InterfaceXXZ(), origin, Point(3, 3), q0, seed=7)
print("  first five paths:", [sample_path(again).steps for _ in range(5)])
print("  reproduced:      ", [sample_path(twice).steps for _ in range(5)])
