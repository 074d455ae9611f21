"""Plane curves through fat points: expected dimensions and reductions.

Quintics with two triple points and a double point reduce by a Bezout
split and then hit the double-point classification; quartics through five
general double points are the classical exception where the expected
dimension is zero but a double conic survives.
"""

import sys

from leflab.linsys import (
    PlaneSystem,
    bezout_step,
    cremona_step,
    expected_dim,
    fatpoint_dim,
    system_dim,
)

quintic = PlaneSystem(5, (3, 3, 2))
print(quintic, "expected", expected_dim(quintic), "actual", fatpoint_dim(quintic))

dim, trace = system_dim(quintic)
print("reduction to dimension", dim)
for step in trace.steps:
    target = step.after if step.after is not None else f"[{step.reason} -> {step.value}]"
    print(f"  {step.rule:20s} {step.before}  ->  {target}")

print()
exceptional = PlaneSystem(4, (2, 2, 2, 2, 2))
print(exceptional, "expected", expected_dim(exceptional), "actual", fatpoint_dim(exceptional))
print("the unique curve is the double conic through the five points")

print()
mismatches = 0
for name, step, sys_ in (
    ("one Cremona step:", cremona_step, PlaneSystem(4, (2, 2, 2))),
    ("one Bezout split:", bezout_step, PlaneSystem(3, (2, 2))),
):
    print(name, sys_, "->", step(sys_))
    before, after = fatpoint_dim(sys_), fatpoint_dim(step(sys_))
    print("dimensions agree:", before, "==", after)
    mismatches += before != after

sys.exit("a reduction changed the dimension" if mismatches else 0)
