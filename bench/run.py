"""Fixed-corpus benchmark of the hesnil library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload vanishing --seed 1 --seconds 25 --trace 0

One process, one thread.  The seed fixes the corpus.  Set-up (import of
``hesnil`` plus the corpus build) is timed once cold, then repeated with
fresh imports of hesnil's own modules, and the median of all of them is
reported.
The corpus is then pushed through the library in whole rounds until
``--seconds`` have passed; each item is timed alone and its result checked
outside the timed region.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.  With ``--trace 0``
those are the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a separate traced pass (see spans.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 6

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_hesnil():
    """Import hesnil from this checkout's src/, never from elsewhere."""
    for key in [k for k in sys.modules if k == "hesnil" or k.startswith("hesnil.")]:
        del sys.modules[key]
    hesnil = importlib.import_module("hesnil")
    importlib.import_module("hesnil.vanishing")
    if Path(hesnil.__file__).resolve().parent != SRC / "hesnil":
        raise ImportError(f"hesnil was imported from {hesnil.__file__}, not from {SRC}")
    return hesnil


def setup_once(workload, member_seeds, seed):
    """A fresh import of hesnil plus a corpus build, timed."""
    t0 = time.perf_counter()
    hesnil = import_hesnil()
    items = workload.build(hesnil, member_seeds, seed)
    return hesnil, items, time.perf_counter() - t0


class Tally:
    """Per-attempt outcomes of the item rounds."""

    def __init__(self, size: int) -> None:
        self.times = []          # seconds of each completed attempt
        self.errors = 0          # attempts that raised
        self.wrong = 0           # attempts whose result failed a check
        self.summaries = [[] for _ in range(size)]
        self.rounds = 0

    def merge(self, other: "Tally") -> None:
        self.times += other.times
        self.errors += other.errors
        self.wrong += other.wrong
        for mine, theirs in zip(self.summaries, other.summaries):
            mine += theirs
        self.rounds += other.rounds

    @property
    def attempted(self) -> int:
        return len(self.times) + self.errors


def run_round(hesnil, workload, items, tally: Tally) -> None:
    for index, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            out = workload.run(hesnil, item)
        except Exception:
            tally.errors += 1
            print(f"item {index} {item.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        tally.times.append(time.perf_counter() - t0)
        try:
            problem, summary = workload.check(hesnil, item, out)
        except Exception as exc:
            problem, summary = f"check raised {exc!r}", None
        if problem:
            tally.wrong += 1
            print(f"item {index} {item.label}: {problem}", file=sys.stderr)
        else:
            tally.summaries[index].append(summary)
    tally.rounds += 1


def run_rounds(hesnil, workload, items, seconds: float, tally: Tally, between=None):
    """Whole rounds until ``seconds`` have passed; ``between`` runs between rounds."""
    start = time.perf_counter()
    while True:
        run_round(hesnil, workload, items, tally)
        if time.perf_counter() - start >= seconds:
            return hesnil, items
        if between is not None:
            hesnil, items = between()


def apply_oracles(hesnil, workload, items, tally: Tally) -> None:
    """The independent routes, once per item, against every round's summary."""
    for index, item in enumerate(items):
        try:
            accept = workload.oracle(hesnil, item)
        except Exception:
            print(f"oracle for item {index} {item.label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            accept = None
        for summary in tally.summaries[index]:
            if accept is None or not accept(summary):
                tally.wrong += 1
                print(f"item {index} {item.label}: independent route disagrees "
                      f"with {summary!r}", file=sys.stderr)


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "items_per_s": {"value": len(tally.times) / sum(tally.times), "unit": "1/s"},
        "item_s_p50": {"value": statistics.median(tally.times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_pass(hesnil, workload, member_seeds, seed, seconds, tally, name):
    """Traced corpus build, then untraced and traced rounds in turn.

    Alternating the two kinds of round exposes both to the same drift of
    the machine's speed, so their ratio is the tracing overhead.
    """
    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        items = workload.build(hesnil, member_seeds, seed)
    finally:
        tracer.uninstall()
    recorder.phase = "items"
    base = Tally(len(items))
    start = time.perf_counter()
    while True:
        run_round(hesnil, workload, items, base)
        tracer.install()
        try:
            run_round(hesnil, workload, items, tally)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    metrics = {key: {"value": value, "unit": unit}
               for key, (value, unit) in spans.per_layer(recorder, len(tally.times)).items()}
    base_items_per_s = len(base.times) / sum(base.times)
    traced_items_per_s = len(tally.times) / sum(tally.times)
    metrics["bench.trace_overhead"] = {"value": base_items_per_s / traced_items_per_s,
                                       "unit": "ratio"}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": tally.rounds,
                   "untraced_items_per_s": base_items_per_s,
                   "traced_items_per_s": traced_items_per_s,
                   "spans": recorder.to_json()}, fh, indent=1)
    return items, metrics, base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hesnil" / "__init__.py").is_file():
        print(f"bench: no hesnil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    # the first, cold import also loads the modules hesnil needs beyond the
    # benchmark's own; the corpus build that completes this set-up sample
    # waits for the input selection, which is not timed
    t0 = time.perf_counter()
    hesnil = import_hesnil()
    cold_import_s = time.perf_counter() - t0
    # input selection: which member seeds give each slot its shape
    member_seeds = workload.seeds(hesnil, args.seed)
    t0 = time.perf_counter()
    items = workload.build(hesnil, member_seeds, args.seed)
    setup_times = [cold_import_s + time.perf_counter() - t0]
    # later samples re-import hesnil's own modules only: what it imported
    # from elsewhere stays loaded
    for _ in range(SETUP_REPS):
        hesnil, items, t = setup_once(workload, member_seeds, args.seed)
        setup_times.append(t)

    def setup_between_rounds():
        # set-up is repeated between rounds too, so that its median spans
        # the whole run rather than one moment of it
        fresh_hesnil, fresh_items, t = setup_once(workload, member_seeds, args.seed)
        setup_times.append(t)
        return fresh_hesnil, fresh_items

    tally = Tally(len(items))
    if args.trace:
        items, metrics, base = traced_pass(hesnil, workload, member_seeds, args.seed,
                                           args.seconds, tally, args.workload)
        # the untraced rounds count as attempts too, and are checked alike
        tally.merge(base)
    else:
        hesnil, items = run_rounds(hesnil, workload, items, args.seconds, tally,
                                   setup_between_rounds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(tally, statistics.median(setup_times), peak_rss_mb)
    apply_oracles(hesnil, workload, items, tally)

    failed = tally.errors + tally.wrong
    print(f"{args.workload}: {len(items)} items x {tally.rounds} rounds, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
