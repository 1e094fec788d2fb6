"""Race detection in PS2.1 (paper Sec. 5).

* :mod:`repro.races.wwrf` — write-write race freedom ``ww-RF`` (interleaving
  machine, Fig. 11) and ``ww-NPRF`` (non-preemptive machine), the premise of
  the paper's optimization-correctness theorem;
* :mod:`repro.races.rwrace` — read-write race *detection* (the paper allows
  rw-races in sources; the detector exists to demonstrate Fig. 5's claim
  that LInv introduces them), sharing one graph scan with ww-RF;
* :mod:`repro.races.tiered` — the three-tier ladder: static rw
  (:mod:`repro.static.rwraces`) and static ww
  (:mod:`repro.static.wwraces`) first, one shared exhaustive exploration
  only for whatever they leave inconclusive (or, for callers that
  explore anyway, the graph first and the static tiers only on
  truncation).
"""

from repro.races.wwrf import RaceReport, WwRaceWitness, scan_races, ww_nprf, ww_rf
from repro.races.ladder import TierOutcome, format_tiers
from repro.races.rwrace import RwRaceWitness, RwReport, rw_races
from repro.races.tiered import (
    RaceLadderReport,
    check_races_graph_first,
    check_races_tiered,
    rw_races_tiered,
    ww_rf_tiered,
    ww_rf_tiered_with_static,
)

__all__ = [
    "RaceLadderReport",
    "RaceReport",
    "RwRaceWitness",
    "RwReport",
    "TierOutcome",
    "WwRaceWitness",
    "check_races_graph_first",
    "check_races_tiered",
    "format_tiers",
    "rw_races",
    "rw_races_tiered",
    "scan_races",
    "ww_nprf",
    "ww_rf",
    "ww_rf_tiered",
    "ww_rf_tiered_with_static",
]
