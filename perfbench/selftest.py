"""Tiny-scale self-test of the benchmark (``python3 perfbench/run.py --self-test``).

Checks that:

* all three workloads complete, untraced and traced, with no failed
  operation, and that ``study-warm`` reproduces ``study-cold``'s digests;
* in every traced operation the layer self times plus
  ``trace.unattributed_s`` add up to the operation's wall time, and none
  is negative, so nested calls are not counted twice;
* a wrapper target that no longer exists is reported as missing, its time
  lands in ``trace.unattributed_s``, and untraced operations still pass;
* a second seed runs clean and changes the digests;
* the pinned digests of ``study-warm`` and ``study-cold`` agree wherever
  both pin the same seed.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

TINY_SCALE = 0.005
TINY_RULES = 300
SECOND_SEED_OFFSET = 1
#: The target the missing-wrapper check renames away.
REMOVED = ("telescope.collect", "DscopeCollector.collect")


def main(layers, workloads, run) -> int:
    from repro.datasets.loader import DEFAULT_SEED

    failures: List[str] = []

    def check(ok: bool, label: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    tiny = {
        name: workloads.scaled(workload, TINY_SCALE, TINY_RULES if workload.rule_count else 0)
        for name, workload in workloads.WORKLOADS.items()
    }

    digests: Dict[str, Dict[str, str]] = {}
    cold_trace = None
    for name, workload in tiny.items():
        plain = run.run_workload(layers, workload, DEFAULT_SEED, 0.0, False)
        traced = run.run_workload(layers, workload, DEFAULT_SEED, 0.0, True)
        check(
            plain.failed == 0 and traced.failed == 0 and plain.digests == traced.digests,
            f"{name}: untraced and traced runs complete with no failures "
            f"({plain.attempted + traced.attempted} operations)",
        )
        check(not traced.missing, f"{name}: every wrapper target found")
        worst = max(
            abs(sum(sample[f"{layer}_s"] for layer in layers.LAYERS)
                + sample["trace.unattributed_s"] - wall)
            for sample, wall in zip(traced.layer_samples, traced.traced)
        )
        negative = min(
            min(sample[f"{layer}_s"] for layer in layers.LAYERS + ("trace.unattributed",))
            for sample in traced.layer_samples
        )
        check(
            worst < 1e-9 and negative > -1e-9,
            f"{name}: self times + unattributed = wall (worst {worst:.2e} s), "
            f"none negative (least {negative:.2e} s)",
        )
        digests[name] = plain.digests
        if name == "study-cold":
            cold_trace = traced

    shared = digests["study-cold"].keys() & digests["study-warm"].keys()
    check(
        bool(shared) and all(
            digests["study-cold"][key] == digests["study-warm"][key] for key in shared
        ),
        f"study-warm reproduces study-cold's digests ({', '.join(sorted(shared))})",
    )

    # A wrapper target that no longer exists.
    layer, attribute = REMOVED
    targets = [
        dataclasses.replace(target, attribute=attribute + "_removed")
        if target.attribute == attribute else target
        for target in layers.TARGETS
    ]
    broken = run.run_workload(
        layers, tiny["study-cold"], DEFAULT_SEED, 0.0, True, targets=targets
    )
    check(
        any(where.endswith(attribute + "_removed") for where in broken.missing),
        f"removed target reported missing: {broken.missing}",
    )
    check(
        broken.failed == 0 and broken.digests == digests["study-cold"],
        "untraced operations unaffected by the missing target",
    )
    layer_s = f"{layer}_s"
    normal, missing = cold_trace.per_layer(layers), broken.per_layer(layers)
    moved = normal[layer_s] - missing[layer_s]
    check(
        moved > 0.5 * normal[layer_s]
        and missing["trace.unattributed_s"] - normal["trace.unattributed_s"] > 0.5 * moved,
        f"missing target's time lands in trace.unattributed_s "
        f"({layer_s} {normal[layer_s]:.3f} -> {missing[layer_s]:.3f} s, unattributed "
        f"{normal['trace.unattributed_s']:.3f} -> {missing['trace.unattributed_s']:.3f} s)",
    )

    # A second seed.
    other_seed = DEFAULT_SEED + SECOND_SEED_OFFSET
    for name, workload in tiny.items():
        other = run.run_workload(layers, workload, other_seed, 0.0, False)
        check(
            other.failed == 0 and bool(other.digests)
            and other.digests["sessions"] != digests[name]["sessions"]
            and other.digests != digests[name],
            f"{name}: seed {other_seed} runs clean and changes the digests",
        )

    # Pinned digests: warm pins agree with cold pins on shared seeds.
    pins = run.load_pins()
    cold_pins = pins.get("study-cold", {})
    warm_pins = pins.get("study-warm", {})
    if cold_pins.get("params") == warm_pins.get("params"):
        seeds = cold_pins.get("seeds", {}).keys() & warm_pins.get("seeds", {}).keys()
        agree = all(
            warm_pins["seeds"][seed][key] == value
            for seed in seeds
            for key, value in cold_pins["seeds"][seed].items()
        )
        check(agree, f"pinned study-warm digests equal study-cold's ({len(seeds)} seeds)")

    print(f"self-test: {len(failures)} failed check(s)")
    return 1 if failures else 0
