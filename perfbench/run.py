"""Repository benchmark: cold study, warm reopen and Snort-scale rescan.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report            # every workload, every metric
    python3 perfbench/run.py --self-test         # tiny-scale check of the benchmark
    python3 perfbench/run.py --pin 1 2 3         # record reference digests

A workload run sets up ``SETUPS`` times (``setup_s`` is the median), then
repeats the workload's operation until ``--seconds`` have passed and at
least ``MIN_OPERATIONS`` ran.  With ``--trace 0`` no wrapper is installed
and the end-to-end metrics are reported; with ``--trace 1`` traced and
untraced operations alternate, and the per-layer metrics of
:mod:`layers` are reported, as medians over the traced operations.

Every operation's outputs are digested (:mod:`oracle`) outside the timed
region and compared with the digests pinned for the workload and seed in
``reference_digests.json``, or, for a seed without pins, with set-up's own
outputs or the first operation's.  An operation that raises, that is not
served from the cache and shard when it should be, or whose digests
differ, counts as failed.  The last line of standard output is the result
object; the line before it holds the host context.

Each run works under its own temporary cache root inside the checkout,
with ``REPRO_CACHE_DIR`` pointing at it, and removes it afterwards.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SOURCE = CHECKOUT / "src"
WORK_DIR = CHECKOUT / ".perfbench-work"
PINS_PATH = HERE / "reference_digests.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest untraced operations in a run, and fewest of each kind when traced.
MIN_OPERATIONS = 3
MIN_TRACED_OPERATIONS = 2
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_benchmark():
    """Import the program and the benchmark's modules, or exit non-zero."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import layers
    import workloads

    return layers, workloads


# -- host context ----------------------------------------------------------


def _git_sha() -> Optional[str]:
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def host_context(workload_params: Dict[str, object]) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workloads": workload_params,
    }


# -- peak resident memory --------------------------------------------------


def reset_peak_rss() -> None:
    """Reset the kernel's high-water mark to the current resident set."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1)) / 1024.0


# -- reference digests -----------------------------------------------------


def load_pins() -> Dict[str, object]:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


def pinned_digests(workload, seed: int) -> Optional[Dict[str, str]]:
    """The digests pinned for this workload, run length and seed, if any."""
    entry = load_pins().get(workload.name)
    if not entry or entry.get("params") != workload.params():
        return None
    return entry.get("seeds", {}).get(str(seed))


# -- one workload run ------------------------------------------------------


class Run:
    """One workload run: set-ups, operations, and what they measured."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 targets=None, setups: int = SETUPS,
                 min_operations: int = MIN_OPERATIONS) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.targets = targets
        self.setups = setups
        self.min_operations = min_operations
        self.setup_seconds: List[float] = []
        self.untraced: List[float] = []
        self.traced: List[float] = []
        self.layer_samples: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.missing: List[str] = []
        self.digests: Dict[str, str] = {}
        self.peak_rss_mb = 0.0

    def execute(self, layers) -> "Run":
        WORK_DIR.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=WORK_DIR))
        previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = str(root)
        try:
            state = self._set_up(root)
            pinned = pinned_digests(self.workload, self.seed)
            if pinned is not None:
                if not self._compare("set-up", state.reference, pinned):
                    self.attempted += 1
                    self.failed += 1
                state.reference = dict(pinned)
            gc.collect()
            reset_peak_rss()
            self._operate(state, layers)
            self.peak_rss_mb = peak_rss_mb()
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
            shutil.rmtree(root, ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass
        return self

    def _set_up(self, root: Path):
        state = None
        for index in range(self.setups):
            setup_root = root / f"setup-{index}"
            if state is not None:
                shutil.rmtree(state.root, ignore_errors=True)
            started = perf_counter()
            state = self.workload.setup(self.seed, setup_root)
            self.setup_seconds.append(perf_counter() - started)
        return state

    def _compare(self, label: str, digests: Dict[str, str], reference: Dict[str, str]) -> bool:
        """True when every digest both sides have agrees; reports others."""
        differing = sorted(
            name for name in digests.keys() & reference.keys()
            if digests[name] != reference[name]
        )
        if differing:
            print(
                f"perfbench: {self.workload.name} seed {self.seed} {label}: "
                f"digests differ from the reference: {', '.join(differing)}",
                file=sys.stderr,
            )
        return not differing

    def _operate(self, state, layers) -> None:
        least = MIN_TRACED_OPERATIONS if self.trace else self.min_operations
        tried = {False: 0, True: 0}
        started = perf_counter()
        while True:
            traced = self.trace and tried[True] < tried[False]
            self._one(state, layers, traced)
            tried[traced] += 1
            enough = tried[False] >= least and (not self.trace or tried[True] >= least)
            if enough and perf_counter() - started >= self.seconds:
                break

    def _one(self, state, layers, traced: bool) -> None:
        self.attempted += 1
        # Start every operation from a collected heap, so garbage left by
        # the previous one is not charged to it.
        gc.collect()
        trace = None
        if traced:
            trace = layers.LayerTrace(self.targets or layers.TARGETS).install()
            self.missing = trace.missing
        started = perf_counter()
        try:
            outputs = self.workload.operation(state)
            elapsed = perf_counter() - started
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        finally:
            if trace is not None:
                trace.uninstall()
        try:
            problems = self.workload.problems(state, outputs)
            digests = self.workload.digests(state, outputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        finally:
            del outputs
            self.workload.after_operation(state)
        if not state.reference:
            state.reference = dict(digests)
        if not self._compare(f"operation {self.attempted}", digests, state.reference):
            problems.append("digests differ")
        if problems:
            print(f"perfbench: {self.workload.name} operation {self.attempted} "
                  f"failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return
        self.digests = digests
        if trace is None:
            self.untraced.append(elapsed)
        else:
            self.traced.append(elapsed)
            self.layer_samples.append(trace.operation_metrics(elapsed))

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        return {
            "op_s": statistics.median(self.untraced) if self.untraced else None,
            "setup_s": statistics.median(self.setup_seconds),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, layers) -> Dict[str, float]:
        names = [name for name in layers.UNITS if name != "trace.overhead_s"]
        metrics = {
            name: statistics.median(sample[name] for sample in self.layer_samples)
            if self.layer_samples else None
            for name in names
        }
        metrics["trace.overhead_s"] = (
            statistics.median(self.traced) - statistics.median(self.untraced)
            if self.traced and self.untraced else None
        )
        return metrics

    def result(self, layers) -> Dict[str, object]:
        if self.trace:
            units = layers.UNITS
            values = self.per_layer(layers)
        else:
            units = END_TO_END_UNITS
            values = self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": units[name]} for name in units
            },
        }


def run_workload(layers, workload, seed: int, seconds: float, trace: bool,
                 **options) -> Run:
    return Run(workload, seed, seconds, trace, **options).execute(layers)


# -- commands --------------------------------------------------------------


def layer_shares(layers, traced: Run) -> Dict[str, float]:
    """Shares of the median traced operation taken by the layer groups the
    workloads are meant to separate, and by all wrapped layers together."""
    metrics = traced.per_layer(layers)
    wall = statistics.median(traced.traced)
    groups = {
        "traffic+telescope": ("traffic.generate_s", "telescope.collect_s"),
        "cache.load": ("cache.load_s",),
        "nids": ("nids.rules_build_s", "nids.scan_s"),
    }
    shares = {
        label: sum(metrics[name] for name in names) / wall
        for label, names in groups.items()
    }
    shares["covered"] = 1.0 - metrics["trace.unattributed_s"] / wall
    return shares


def command_single(layers, workloads, args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    run = run_workload(layers, workload, args.seed, args.seconds, bool(args.trace))
    context = host_context({workload.name: workload.params()})
    context.update(
        seed=args.seed,
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        operations=len(run.untraced) + len(run.traced),
        setup_seconds=run.setup_seconds,
        untraced_seconds=run.untraced,
        traced_seconds=run.traced,
        missing_targets=run.missing,
        digests=run.digests,
    )
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps(run.result(layers)))
    return 0 if run.failed == 0 else 1


def command_report(layers, workloads, args) -> int:
    """Every metric by name and unit for each workload; non-zero on failure."""
    load_before = os.getloadavg()
    failed = 0
    units = dict(END_TO_END_UNITS, **layers.UNITS)
    for workload in workloads.WORKLOADS.values():
        plain = run_workload(layers, workload, args.seed, args.seconds, False)
        traced = run_workload(layers, workload, args.seed, args.seconds, True)
        attempted = plain.attempted + traced.attempted
        failures = plain.failed + traced.failed
        failed += failures
        print(f"== {workload.name}  seed {args.seed}  "
              f"{len(plain.untraced)} untraced / {len(traced.traced)} traced operations  "
              f"{json.dumps(workload.params())}")
        print(f"   {'fail_ratio':<32} {failures / attempted:>14.4f} "
              f"({failures}/{attempted})")
        values = dict(plain.end_to_end(), **traced.per_layer(layers))
        for name, value in values.items():
            shown = "-" if value is None else f"{value:.4f}"
            print(f"   {name:<32} {shown:>14} {units[name]}")
        if traced.layer_samples:
            print("   share of traced op_s: " + ", ".join(
                f"{label} {share:.1%}" for label, share in layer_shares(layers, traced).items()
            ))
        if traced.missing:
            print(f"   missing wrapper targets: {', '.join(traced.missing)}")
    context = host_context(
        {workload.name: workload.params() for workload in workloads.WORKLOADS.values()}
    )
    context.update(loadavg_before=load_before, loadavg_after=os.getloadavg())
    print("context " + json.dumps(context, sort_keys=True))
    return 0 if failed == 0 else 1


def command_pin(layers, workloads, args) -> int:
    """Record each workload's digests for the given seeds."""
    pins = load_pins()
    for workload in workloads.WORKLOADS.values():
        entry = pins.get(workload.name)
        if not entry or entry.get("params") != workload.params():
            entry = {"params": workload.params(), "seeds": {}}
        for seed in args.pin:
            run = run_workload(layers, workload, seed, 0.0, False,
                               setups=1, min_operations=1)
            if run.failed or not run.digests:
                print(f"perfbench: cannot pin {workload.name} seed {seed}: an "
                      "operation failed or disagrees with the pinned digests "
                      f"(remove its entry from {PINS_PATH.name} to re-pin)",
                      file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = run.digests
            print(f"pinned {workload.name} seed {seed}", flush=True)
        pins[workload.name] = entry
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload and print its result")
    mode.add_argument("--report", action="store_true",
                      help="run every workload, traced and untraced")
    mode.add_argument("--self-test", action="store_true",
                      help="check the benchmark itself at tiny scale")
    mode.add_argument("--pin", type=int, nargs="+", metavar="SEED",
                      help="record reference digests for these seeds")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the program's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    layers, workloads = _import_benchmark()
    if args.seed is None:
        from repro.datasets.loader import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
        return command_single(layers, workloads, args)
    if args.report:
        return command_report(layers, workloads, args)
    if args.pin:
        return command_pin(layers, workloads, args)
    import selftest

    return selftest.main(layers, workloads, sys.modules[__name__])


if __name__ == "__main__":
    sys.exit(main())
