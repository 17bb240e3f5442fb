#!/usr/bin/env python3
"""Tier-based cloud provisioning with table caching.

The paper's introduction motivates Tableau economically: providers sell
price-differentiated tiers and pack lower tiers densely.  This example
provisions a fleet from a tier catalogue, shows the per-tier guarantees
the planner derives, then simulates a day of churn (VMs created and
destroyed with tier shapes recurring) to demonstrate Sec. 7.1's table
caching: the planner caches per-core tables by task shape, so a renamed
census of recurring tiers replans without re-running EDF.

Run:  python examples/tiered_cloud.py
"""

import time

from repro.core import MS, Planner, vms_from_tiers
from repro.core.params import DEFAULT_TIERS
from repro.topology import xeon_16core


def main() -> None:
    print("Tier catalogue:")
    for tier in DEFAULT_TIERS.values():
        print(f"  {tier.name:12s} {tier.utilization:5.0%} of a core, "
              f"{tier.latency_ns / MS:6.1f} ms latency bound, "
              f"{'capped' if tier.capped else 'burstable'}")

    # A representative fleet: dense economy tier plus some premium VMs.
    requests = (
        [(f"econ{i}", "economy") for i in range(16)]
        + [(f"std{i}", "standard") for i in range(12)]
        + [(f"perf{i}", "performance") for i in range(8)]
        + [("dedicated0", "dedicated")]
    )
    vms = vms_from_tiers(requests)
    topology = xeon_16core()
    planner = Planner(topology)
    plan = planner.plan(vms)
    print(f"\nPlanned {len(requests)} VMs "
          f"({sum(vm.total_utilization for vm in vms):.1f} cores reserved of "
          f"{len(topology.guest_cores)}) in "
          f"{plan.stats.generation_seconds * 1e3:.1f} ms.")

    print("\nPer-tier guarantees as realized in the table:")
    for name, tier in DEFAULT_TIERS.items():
        example = next((vm.vcpus[0].name for vm in vms
                        if vm.vcpus[0].utilization == tier.utilization), None)
        if example is None:
            continue
        blackout = plan.table.max_blackout_ns(example)
        print(f"  {name:12s} worst-case delay {blackout / MS:7.3f} ms "
              f"(goal {tier.latency_ns / MS:.1f} ms), reserved "
              f"{plan.table.utilization_of(example):.3f}")

    # Churn: tenants come and go, but tier shapes recur constantly.
    print("\nSimulating churn over recurring tier shapes (Sec. 7.1) ...")
    started = time.perf_counter()
    for generation in range(20):
        renamed = [
            (f"g{generation}-{name}", tier) for name, tier in requests
        ]
        planner.plan(vms_from_tiers(renamed))
    elapsed = time.perf_counter() - started
    print(f"  20 renamed replans in {elapsed * 1e3:.1f} ms total "
          f"({elapsed * 1e3 / 20:.1f} ms each, against "
          f"{plan.stats.generation_seconds * 1e3:.1f} ms for the cold plan)")


if __name__ == "__main__":
    main()
