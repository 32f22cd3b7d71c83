"""Number balancing, lattice reduction, and oracle reductions over exact rationals."""
