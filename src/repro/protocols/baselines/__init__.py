"""Baseline SS-LE protocols for the Table-1 comparison.

* :mod:`repro.protocols.baselines.yokota2021` — [28] Yokota, Sudo, Masuzawa
  2021: knowledge ``psi``, ``O(n)`` states, ``Theta(n^2)`` steps.
* :mod:`repro.protocols.baselines.fischer_jiang` — [15] Fischer, Jiang 2006:
  oracle ``Omega?``, ``O(1)`` states.
* :mod:`repro.protocols.baselines.angluin_modk` — [5] Angluin, Aspnes,
  Fischer, Jiang 2008: ring size not a multiple of ``k``, ``O(1)`` states.
* :mod:`repro.protocols.baselines.thue_morse` and
  :mod:`repro.protocols.baselines.chen_chen` — [11] Chen, Chen 2019:
  no assumption, ``O(1)`` states, exponential time (substrate + analytic
  model; see DESIGN.md for the substitution rationale).
"""

from repro.protocols.baselines.angluin_modk import AngluinModKProtocol, AngluinState
from repro.protocols.baselines.chen_chen import (
    ChenChenModel,
    cube_positions,
    embedded_ring_string,
    has_cube,
)
from repro.protocols.baselines.fischer_jiang import (
    FischerJiangProtocol,
    FischerJiangState,
    OracleOmega,
)
from repro.protocols.baselines.thue_morse import is_cube_free, thue_morse_bit, thue_morse_prefix
from repro.protocols.baselines.yokota2021 import Yokota2021Protocol, YokotaState

__all__ = [
    "AngluinModKProtocol",
    "AngluinState",
    "ChenChenModel",
    "FischerJiangProtocol",
    "FischerJiangState",
    "OracleOmega",
    "Yokota2021Protocol",
    "YokotaState",
    "cube_positions",
    "embedded_ring_string",
    "has_cube",
    "is_cube_free",
    "thue_morse_bit",
    "thue_morse_prefix",
]
