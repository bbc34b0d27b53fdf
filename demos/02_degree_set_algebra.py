"""Degree sets: finite parts, arithmetic progressions, and subsequence sums.

A degree set stores a finite chunk plus arithmetic progressions and
supports exact union, intersection and membership.  Subsequence-sum sets
S_B are the finite building blocks: every finite set containing 0 is an
intersection of a few of them, and `decompose` finds such sequences with
a replayable certificate.
"""

from circledeg import (
    DegreeSet,
    SearchLimits,
    SequenceB,
    decompose,
    subsequence_sums,
    verify_decomposition,
)

evens = DegreeSet([], [(0, 2)])
odds = DegreeSet([], [(1, 2)])
print("evens:", evens.render())
print("evens u odds:", (evens | odds).render())
print("evens n (2 mod 3):", (evens & DegreeSet([], [(2, 3)])).render())
print("window of evens in [-6, 6]:", evens.window(-6, 6))

# S_B for B = (1, 3): all sums over subsequences, empty sum included.
s13 = subsequence_sums(SequenceB((1, 3)))
print("S_(1,3) =", s13.render())

# {0, 1, 3} is NOT an S_B (any B realizing 1 and 3 also realizes 4),
# but it is an intersection of two of them.
cert = decompose({0, 1, 3})
print("sequences:", [s.entries for s in cert.sequences])
for step in cert.transcript:
    print(f"  after {step.sequence.entries}: intersection {step.intersection}")

# The verifier replays the certificate by brute-force subset enumeration,
# a different algorithm than the search used to build it.
print("verified:", verify_decomposition(cert))

# Caps are explicit: a tiny budget fails loudly instead of thrashing.
try:
    decompose({0, 1, 3}, SearchLimits(budget=1))
except Exception as exc:
    print("tiny budget:", exc)

# Sets with negative members work the same way.
cert = decompose({0, -2, 5})
print("decompose {0, -2, 5}:", [s.entries for s in cert.sequences])
print("verified:", verify_decomposition(cert))
