"""Dot level scheme, photon energies, tuning sensitivities, and node planning.

Everything here is closed-form arithmetic on configuration values: Zeeman
splitting of the trion line, Varshni temperature tuning, dipole-dipole
coupling between stacked dots, and the spectral slot plan for a node.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .units import COULOMB_MEV_NM, MU_B_MEV_PER_T


@dataclass
class MaterialConstants:
    """Bulk constants entering tuning and phonon estimates."""

    name: str
    eps_r: float                 # static dielectric constant
    rho_kg_m3: float             # mass density
    c_s_m_s: float               # longitudinal sound velocity
    d_c_ev: float                # conduction-band deformation potential
    d_v_ev: float                # valence-band deformation potential
    varshni_alpha_mev_k: float
    varshni_beta_k: float

    def __post_init__(self):
        if self.rho_kg_m3 <= 0 or self.c_s_m_s <= 0 or self.eps_r <= 0:
            raise ValueError("rho, c_s and eps_r must be positive")
        if self.varshni_alpha_mev_k <= 0 or self.varshni_beta_k <= 0:
            raise ValueError("varshni alpha and beta must be positive")


GAAS = MaterialConstants(
    name="GaAs", eps_r=12.9, rho_kg_m3=5317.0, c_s_m_s=5110.0,
    d_c_ev=-8.0, d_v_ev=1.0,
    varshni_alpha_mev_k=0.5405, varshni_beta_k=204.0)

# representative bulk values; hole masses are heavier than in GaAs so the
# flat-dot heavy-hole picture holds at least as well
ZNSE = MaterialConstants(
    name="ZnSe", eps_r=8.9, rho_kg_m3=5266.0, c_s_m_s=4040.0,
    d_c_ev=-4.17, d_v_ev=1.65,
    varshni_alpha_mev_k=0.730, varshni_beta_k=295.0)

MATERIAL_PRESETS = {"GaAs": GAAS, "ZnSe": ZNSE}

# an addressing plan holds at most this many slots
MAX_PLAN_SLOTS = 10_000
# a dot's thickness is at least MIN_SIZE_NM and its diameter and |d_eh| at most
# MAX_SIZE_NM, far outside any real dot; past these the phonon form factors'
# exponents k^2 sigma^2 and k d_eh overflow, k reaching ~39 / (thickness / 4)
MIN_SIZE_NM, MAX_SIZE_NM = 1e-3, 1e6


@dataclass
class DotConfig:
    """Single-dot parameters; energies in meV unless suffixed otherwise."""

    e_t_mev: float = 1650.0      # trion transition energy at zero field
    g_x: float = 2.0             # exciton g-factor
    b_field_t: float = 1.0
    t_op_k: float = 30.0
    diameter_nm: float = 16.0
    thickness_nm: float = 4.0
    d_eh_nm: float = 5.0         # electron-hole offset under the transverse field
    t_rad_ps: float = 300.0

    def __post_init__(self):
        if self.e_t_mev < 0:
            raise ValueError("e_t_mev must be nonnegative")
        if self.t_rad_ps <= 0:
            raise ValueError("t_rad_ps must be positive")
        if self.t_op_k <= 0:
            # the Varshni slope, which control_precision divides by, is 0 at 0 K
            raise ValueError("t_op_k must be positive")
        if self.g_x == 0:
            # so is the Zeeman slope g_x * mu_B
            raise ValueError("g_x must be nonzero")
        if not self.diameter_nm > self.thickness_nm:
            # flat-dot assumption keeps the heavy hole as the ground hole state
            raise ValueError("diameter must exceed thickness")
        if (self.thickness_nm < MIN_SIZE_NM
                or max(self.diameter_nm, abs(self.d_eh_nm)) > MAX_SIZE_NM):
            raise ValueError(f"thickness_nm must be at least {MIN_SIZE_NM:g} nm, and "
                             f"diameter_nm and |d_eh_nm| at most {MAX_SIZE_NM:g} nm")


@dataclass
class NodePlan:
    """Trion-energy slot assignment for one node."""

    e_w_mev: float
    e_s_mev: float
    slots_mev: tuple
    n_qubits: int = field(init=False)

    def __post_init__(self):
        self.n_qubits = len(self.slots_mev)
        # a product i * e_s is off by up to an ulp of itself, so the spacing
        # tolerance scales with the slot value
        for a, b in zip(self.slots_mev, self.slots_mev[1:]):
            if b - a < self.e_s_mev - 1e-12 * b:
                raise ValueError("slot spacing below minimum separation")
        if any(not (0.0 <= s < self.e_w_mev) for s in self.slots_mev):
            raise ValueError("slot outside addressing window")


def photon_energies(cfg: DotConfig) -> tuple[float, float]:
    """Trion photon lines (sigma+, sigma-) in meV, split by 2 g_X mu_B B."""
    e_z = cfg.g_x * MU_B_MEV_PER_T * cfg.b_field_t
    return cfg.e_t_mev + e_z, cfg.e_t_mev - e_z


def varshni_shift(t_k: float, mat: MaterialConstants) -> float:
    """Downward gap shift alpha*T^2/(T+beta) in meV at temperature T."""
    if t_k < 0:
        raise ValueError("temperature must be nonnegative")
    return mat.varshni_alpha_mev_k * t_k ** 2 / (t_k + mat.varshni_beta_k)


def varshni_slope(t_k: float, mat: MaterialConstants) -> float:
    """d(shift)/dT = alpha*T*(T+2*beta)/(T+beta)^2 in meV/K."""
    if t_k < 0:
        raise ValueError("temperature must be nonnegative")
    a, b = mat.varshni_alpha_mev_k, mat.varshni_beta_k
    return a * t_k * (t_k + 2.0 * b) / (t_k + b) ** 2


def control_precision(cfg: DotConfig, mat: MaterialConstants,
                      de_target_uev: float = 0.2) -> tuple[float, float]:
    """Temperature and field stability (dT_max in mK, dB_max in mT).

    The targets keep the trion line within de_target of its set point:
    dB from the Zeeman slope g_X mu_B, dT from the Varshni slope at the
    operating temperature.  Both slopes are nonzero, since DotConfig holds
    g_x != 0 and T_op > 0, and MaterialConstants alpha and beta above 0.
    """
    if de_target_uev < 0:
        raise ValueError("precision target must be nonnegative")
    de_mev = de_target_uev * 1e-3
    db_t = de_mev / (abs(cfg.g_x) * MU_B_MEV_PER_T)
    dt_k = de_mev / varshni_slope(cfg.t_op_k, mat)
    return dt_k * 1e3, db_t * 1e3


def dipole_dipole_energy(d_eh_nm: float, r_nm: float, eps_r: float,
                         geometry: str = "four-charge") -> float:
    """Static coupling between two vertically stacked field-induced dipoles, meV.

    Both dipoles point along the in-plane field, perpendicular to the
    stacking axis, so the angular factor is +1.  The four-charge mode sums
    the Coulomb terms of the two electron-hole pairs; the point-dipole mode
    is its large-r limit (e d_eh)^2 / (4 pi eps0 eps_r r^3).
    """
    if r_nm <= 0:
        raise ValueError("separation must be positive")
    scale = COULOMB_MEV_NM / eps_r
    if geometry == "point-dipole":
        return scale * d_eh_nm ** 2 / r_nm ** 3
    if geometry == "four-charge":
        if d_eh_nm == 0:
            raise ValueError("four-charge geometry needs non-coincident charges")
        r_cross = math.hypot(d_eh_nm, r_nm)
        return scale * (2.0 / r_nm - 2.0 / r_cross)
    raise ValueError(f"unknown geometry {geometry!r}")


def addressing_plan(e_w_mev: float = 15.0, e_s_mev: float = 7.5) -> NodePlan:
    """Assign trion-energy slots spaced by e_s inside the window [0, e_w).

    The slots are the products i * e_s, as rounded, that fall below e_w.
    """
    if e_w_mev <= 0 or e_s_mev <= 0:
        raise ValueError("window and separation must be positive")
    # the float ratio is compared before ceil(), so an infinite one is refused too
    ratio = e_w_mev / e_s_mev
    if not ratio <= MAX_PLAN_SLOTS:
        raise ValueError(f"addressing plan exceeds {MAX_PLAN_SLOTS} slots")
    candidates = (i * e_s_mev for i in range(min(math.ceil(ratio) + 1, MAX_PLAN_SLOTS)))
    return NodePlan(e_w_mev, e_s_mev, tuple(s for s in candidates if s < e_w_mev))


def tune_report(dot: DotConfig, material: MaterialConstants, de_target_uev: float,
                r_dd_nm: float, e_w_mev: float, e_s_mev: float) -> dict:
    """Photon lines, the control precision that holds them within de_target,
    Varshni tuning, dipole-dipole coupling at r_dd, and the addressing plan."""
    e_plus, e_minus = photon_energies(dot)
    dt_mk, db_mt = control_precision(dot, material, de_target_uev)
    return {
        "photon_energies": {
            "sigma_plus_mev": e_plus,
            "sigma_minus_mev": e_minus,
            "splitting_mev": e_plus - e_minus,
            "degenerate": e_plus == e_minus,
        },
        "control": {
            "de_target_uev": de_target_uev,
            "dt_max_mk": dt_mk,
            "db_max_mt": db_mt,
            "t_op_assumed_k": dot.t_op_k,
        },
        "varshni": {
            "shift_mev": varshni_shift(dot.t_op_k, material),
            "slope_mev_per_k": varshni_slope(dot.t_op_k, material),
        },
        "dipole_dipole": {
            "r_nm": r_dd_nm,
            "point_mev": dipole_dipole_energy(dot.d_eh_nm, r_dd_nm, material.eps_r,
                                              "point-dipole"),
            "four_charge_mev": dipole_dipole_energy(dot.d_eh_nm, r_dd_nm, material.eps_r,
                                                    "four-charge"),
        },
        "plan": asdict(addressing_plan(e_w_mev, e_s_mev)),
    }
