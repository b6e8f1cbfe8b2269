"""Tour of the system catalog: orbits, invariant-measure sampling, names.

Every system bundles a map T (with inverse), a metric and a deterministic
sampler.  A partition turns orbits into symbol sequences ("names"), the
raw material for everything else in the package.
"""

import numpy as np

import ergolab as e

plan = e.RandomPlan(2024)

# --- circle rotation by the golden mean ------------------------------------
rot = e.make_system(e.rotation(e.GOLDEN))
print("rotation orbit of 0:", np.round(rot.orbit(0.0, 6), 4))

word = e.name_word(rot, e.halves(), 0.0, 24)
print("halves-name of 0:  ", "".join(map(str, word.symbols)))

# --- angle doubling: the name IS the binary expansion -----------------------
dbl = e.make_system(e.doubling())
x = 3 / 8
print(f"\ndoubling name of {x}:", e.name_word(dbl, e.halves(), x, 4).symbols)

# points sampled from Lebesgue measure live on the natural extension,
# so the doubling map can be run backwards too; a sample set is one batch,
# and a single point is a batch of one
p = dbl.sample_measure(1, plan)
back = dbl.step(p, -3)
print("T^3 T^-3 x == x:", dbl.value_orbit(dbl.step(back, 3), 1)[0] == dbl.value_orbit(p, 1)[0])

# --- two-sided bernoulli shift ----------------------------------------------
ber = e.make_system(e.bernoulli_shift(0.5))
y = ber.sample_measure(1, plan)
print("\nbernoulli symbols [-5,5):", ber.rows(y, -5, 5)[0])
print("after one shift:         ", ber.rows(ber.step(y), -5, 5)[0])

# --- refinement: names of length N label the N-fold refined partition -------
ref = e.refine(e.halves(), rot, 4)
print("\nhalves refined 4 steps under rotation:", ref.cell_count, "cells")
