"""Unit constants and conversions.

Internal convention: time in ps, energies entering Hamiltonians as angular
frequencies in rad/ps.  Energies in data structures and reports are meV.
All meV <-> rad/ps conversions go through HBAR_MEV_PS, defined here once.
"""

HBAR_MEV_PS = 0.6582119          # meV ps
MU_B_MEV_PER_T = 0.057883        # meV / T
COULOMB_MEV_NM = 1439.964        # e^2 / (4 pi eps0), meV nm

# SI values, used only by the phonon spectral density
HBAR_SI = 1.054571817e-34        # J s
EV_SI = 1.602176634e-19          # J
