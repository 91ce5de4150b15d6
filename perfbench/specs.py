"""Campaign specs of the benchmark workloads, generated from the seed.

The seed picks the campaign seed, which decides every weak-cell
population and therefore every probe outcome; the shapes below are
fixed so that runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import random

from repro import units
from repro.characterization.campaign import CampaignSpec

#: Two die revisions from each manufacturer (the paper's Fig. 6 spread).
FIG6_MODULES = ("S0", "S3", "H0", "H2", "M3", "M6")

#: Dense Fig. 6/7 t_AggON axis, 36 ns to 30 ms (ns).
SWEEP_POINTS = (
    36.0, 100.0, 300.0, 1_000.0, units.TREFI, 3 * units.TREFI,
    9 * units.TREFI, 200_000.0, 1_000_000.0, 3_000_000.0,
    10_000_000.0, 30_000_000.0,
)


def _campaign_seed(seed: int, workload: str) -> int:
    return random.Random(f"{workload}:{seed}").randrange(2**31)


def workload_specs(workload: str, seed: int) -> list[CampaignSpec]:
    """The campaign specs one iteration of ``workload`` runs, in order."""
    campaign_seed = _campaign_seed(seed, workload)
    if workload == "acmin_campaign":
        # Many sites, few points: each row serves only a few probes.
        return [
            CampaignSpec(
                name=f"acmin-campaign-{seed}",
                module_ids=FIG6_MODULES,
                experiment="acmin",
                t_aggon_values=(36.0, units.TREFI, units.TAGGON_MAX),
                sites_per_module=4,
                seed=campaign_seed,
            )
        ]
    if workload == "acmin_sweep":
        # Few rows, many points: each row is reused by dozens of
        # bisections, single- then double-sided (Figs. 6/7, 17/18).
        return [
            CampaignSpec(
                name=f"acmin-sweep-{access}-{seed}",
                module_ids=("S3", "H0"),
                experiment="acmin",
                t_aggon_values=SWEEP_POINTS,
                access=access,
                sites_per_module=2,
                seed=campaign_seed,
            )
            for access in ("single", "double")
        ]
    if workload == "service_ber":
        # Table 6 shape: budget-maximal BER at the paper's three t_AggON.
        return [
            CampaignSpec(
                name=f"service-ber-{seed}",
                module_ids=FIG6_MODULES,
                experiment="ber",
                t_aggon_values=(36.0, units.TREFI, units.TAGGON_MAX),
                sites_per_module=4,
                seed=campaign_seed,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")
