"""Race detection in PS2.1 (paper Sec. 5).

* :mod:`repro.races.wwrf` — write-write race freedom ``ww-RF`` (interleaving
  machine, Fig. 11) and ``ww-NPRF`` (non-preemptive machine), the premise of
  the paper's optimization-correctness theorem;
* :mod:`repro.races.rwrace` — read-write race *detection* (the paper allows
  rw-races in sources; the detector exists to demonstrate Fig. 5's claim
  that LInv introduces them), sharing one graph scan with ww-RF;
* :mod:`repro.races.tiered` — the one race ladder,
  :func:`check_races_tiered`: the interleaving graph first when the
  caller already holds it (the static tiers only on truncation), else
  static rw (:mod:`repro.static.rwraces`) and static ww
  (:mod:`repro.static.wwraces`) first and one shared exploration only for
  whatever they leave open.
"""

from repro.races.wwrf import RaceReport, WwRaceWitness, scan_races, ww_nprf, ww_rf
from repro.races.ladder import TierOutcome, format_tiers
from repro.races.rwrace import RwRaceWitness, RwReport, rw_races
from repro.races.tiered import RaceLadderReport, check_races_tiered

__all__ = [
    "RaceLadderReport",
    "RaceReport",
    "RwRaceWitness",
    "RwReport",
    "TierOutcome",
    "WwRaceWitness",
    "check_races_tiered",
    "format_tiers",
    "rw_races",
    "scan_races",
    "ww_nprf",
    "ww_rf",
]
