"""Pseudospectral toolkit for the 1-D cubic fractional Schrodinger equation
i u_t + (-Delta)^(alpha/2) u = gamma |u|^2 u on a torus, with the space-time
norm machinery and scaling experiments used to verify its dispersive
behaviour (conservation laws, resonant trilinear growth, wavepacket norm
scaling, modulated approximate solutions, and the data-separation pipeline).

The package holds only its version: each name is imported from the module
that defines it, e.g. fnls.evolution.evolve_records.
"""

__version__ = "0.1.0"
