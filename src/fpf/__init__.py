"""Numerical engine for contour-time quantum history measures.

Builds branch propagators from piecewise-constant Hamiltonian schedules,
evaluates history weights as products of conjugate branch amplitudes, and
normalizes them into outcome measures that reproduce the Born and
pre/post-selection (ABL) probability rules, verified against independent
textbook oracles.
"""
