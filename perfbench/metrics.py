"""Metric maths of the benchmark: the correctness gate, determinism
digests, span self time, the paper comparison, and the end-to-end and
per-layer metrics computed from one perfbench_driver document.

Pure functions over plain dicts; perfbench/run.py feeds them and
perfbench/test_perfbench.py tests them.
"""

import hashlib
import json
import math
import os
import statistics

# Geomean speedup over PMEM per scheme, paper Fig. 6 (the anchors in
# EXPERIMENTS.md and bench/fig06_speedup_nvm.cc). Proteus is a range:
# error is 0 inside it and measured to the nearest end outside it.
# Proteus+NoLWR is excluded, because the paper gives it no number.
# These four geomeans are the only paper numbers the benchmark checks;
# nothing else in the model is validated against the paper.
PAPER_FIG6 = {
    "PMEM+pcommit": (0.79, 0.79),
    "ATOM": (1.33, 1.33),
    "Proteus": (1.44, 1.47),
    "PMEM+nolog": (1.51, 1.51),
}
BASELINE = "PMEM"

# The counters a cell's digest covers (RunResult golden stats).
DIGEST_FIELDS = ("cycles", "retiredOps", "nvmWrites", "nvmReads",
                 "committedTxs", "logWritesDropped", "frontendStallCycles",
                 "cpi")
CRASH_DIGEST_FIELDS = ("points", "totalCycles", "totalTxs", "pointsHash")

# Names and units of the metrics, in report order: BENCHMARK.json at
# the repository root is their one source.
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json")) as _f:
    _BENCHMARK = json.load(_f)
END_TO_END = tuple(m["name"] for m in _BENCHMARK["end_to_end"])
PER_LAYER = tuple(m["name"] for m in _BENCHMARK["per_layer"])
UNITS = {m["name"]: m["unit"]
         for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}


def geomean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_error(scheme, value):
    """Relative error (%) of one geomean speedup against paper Fig. 6."""
    lo, hi = PAPER_FIG6[scheme]
    if lo <= value <= hi:
        return 0.0
    end = lo if value < lo else hi
    return 100.0 * abs(value - end) / end


def cell_cycles(cell):
    return cell["totalCycles"] if "totalCycles" in cell else cell["cycles"]


def fig6_speedup_err(cells):
    """Mean paper error (%) of the per-scheme geomean speedups over
    PMEM, from one pass over the scheme x workload matrix."""
    cycles = {(c["scheme"], c["workload"]): cell_cycles(c) for c in cells}
    workloads = sorted({w for s, w in cycles if s == BASELINE})
    errors = []
    for scheme in PAPER_FIG6:
        speedups = [cycles[(BASELINE, w)] / cycles[(scheme, w)]
                    for w in workloads]
        errors.append(paper_error(scheme, geomean(speedups)))
    return statistics.fmean(errors)


def self_times(spans):
    """span id -> its duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        kids = sorted(children.get(s["id"], []), key=lambda k: k["start"])
        for k in kids:
            lo = max(k["start"], reach)
            hi = min(k["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_seconds(spans, name, passes):
    """Summed self time of every span called @name in @passes."""
    selected = [s for s in spans if s["pass"] in passes]
    own = self_times(selected)
    return sum(own[s["id"]] for s in selected if s["name"] == name)


def digest(cell):
    """Hex digest of a cell's golden-stat counters."""
    fields = CRASH_DIGEST_FIELDS if "points" in cell else DIGEST_FIELDS
    text = ";".join("%s=%s" % (f, cell[f]) for f in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_ops(cell):
    """(attempted, failed) operations of one cell by the gate: a
    simulated cell is one operation, a crash pair one per crash point."""
    if "points" in cell:
        points = cell["points"]
        if points == 0:
            return 1, 1
        if cell["checkViolations"] > 0:
            return points, points
        return points, cell["badPoints"]
    ok = (cell["finished"]
          and cell["committedTxs"] == cell["txEndOps"]
          and cell["coreCpi"] == cell["coreCycles"]
          and sum(cell["cpi"]) == sum(cell["coreCycles"])
          and cell.get("check", {"pass": True})["pass"])
    return 1, 0 if ok else 1


def is_operation(cell):
    """A simulated cell or a crash pair; check_matrix's set-up cells
    only build and save a trace."""
    return "cycles" in cell or "points" in cell


def digest_key(i, cell):
    kind = "crash" if "points" in cell else "run"
    return "%s/%s %s" % (cell["scheme"], cell["workload"], kind), i


def judge(doc):
    """(attempted, failed, digests) over every pass of the run. A cell
    whose digest differs from its first run's is a failed operation, and
    so is a crash pair whose cycle count differs from its reference
    run's. digests maps (name, cell index) to the first run's digest."""
    attempted = failed = 0
    digests = {}
    reference_cycles = {}
    for p in doc["passes"]:
        for i, cell in enumerate(p["cells"]):
            if not is_operation(cell):
                continue
            a, f = cell_ops(cell)
            d = digest(cell)
            if d != digests.setdefault(digest_key(i, cell), d):
                f = a
            if "cycles" in cell:
                reference_cycles.setdefault(i, cell["cycles"])
            elif reference_cycles.get(i, cell["totalCycles"]) != \
                    cell["totalCycles"]:
                f = a
            attempted += a
            failed += f
    return attempted, failed, digests


def pass_ops(cells):
    return sum(c.get("points", 1) for c in cells)


def pass_uops(cells):
    return sum(c.get("retiredOps", c["traceOps"]) for c in cells)


def end_to_end(doc, attempted, failed):
    timed = [p for p in doc["passes"] if p["label"] == "timed"]
    walls = [p["wall_s"] for p in timed]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "pass_frac": 1.0 - failed / attempted,
        "sim_uops_per_s": statistics.median(
            pass_uops(p["cells"]) / p["wall_s"] for p in timed),
        "ops_per_s": statistics.median(
            pass_ops(p["cells"]) / p["wall_s"] for p in timed),
        "fig6_speedup_err": fig6_speedup_err(timed[0]["cells"]),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(doc):
    passes = {p["label"]: p for p in doc["passes"]}
    spans = doc["spans"]
    # The layers' calls: the traced pass and, where it was traced, the
    # last set-up (fig06_sweep's set-up is an untraced warm-up pass).
    layer = tuple(label for label in ("setup", "traced")
                  if label in passes and passes[label]["traced"])

    def secs(name, which=layer):
        return layer_seconds(spans, name, which)

    cells = [c for label in layer for c in passes[label]["cells"]]
    sims = [c for c in cells if "cycles" in c]
    crashes = [c for c in cells if "points" in c]
    built = [passes[label] for label in layer
             if passes[label]["cacheMisses"] > 0]
    saved = [c for c in cells if "ptraceBytes" in c]

    def total(key, cells=sims):
        return sum(c[key] for c in cells)

    def weighted(key):
        return _ratio(sum(c[key] * c["cycles"] for c in sims),
                      total("cycles"))

    build_s = secs("functional.build")
    load_s = secs("ptrace.load")
    ptrace_mb = total("ptraceBytes", saved) / 1e6
    simulate_s = secs("simulate")
    uops = total("retiredOps")
    steps = total("kernelSteps")
    checks = [c["check"] for c in sims if "check" in c]
    events = sum(c["events"] for c in checks)
    check_s = (simulate_s - secs("simulate", ("nocheck",))
               if "nocheck" in passes else 0.0)
    attempts = total("mcWriteAttempts")
    pair_s = secs("crash.pair")
    plain = passes["plain"]["wall_s"]
    return {
        "functional.build_s": build_s,
        "functional.builds": sum(p["cacheMisses"] for p in built),
        "functional.txs_per_s": _ratio(
            sum(total("bundleTxs", p["cells"]) for p in built), build_s),
        "trace_cache.hits": sum(passes[p]["cacheHits"] for p in layer),
        "trace_cache.misses": sum(passes[p]["cacheMisses"] for p in layer),
        "trace_cache.resident": max(passes[p]["cacheResident"]
                                    for p in layer),
        "ptrace.save_s": secs("ptrace.save"),
        "ptrace.load_s": load_s,
        "ptrace.mb": ptrace_mb,
        "ptrace.load_mb_per_s": _ratio(ptrace_mb, load_s),
        "system.wire_s": secs("system.wire"),
        "simulate.s": simulate_s,
        "simulate.ns_per_uop": _ratio(simulate_s * 1e9, uops),
        "simulate.ns_per_step": _ratio(simulate_s * 1e9, steps),
        "sim.cycles": total("cycles"),
        "sim.uops": uops,
        "sim.kernel_steps": steps,
        "sim.skip_ratio": _ratio(total("skippedCycles"), total("cycles")),
        "sim.skip_speedup": (_ratio(secs("simulate", ("noskip",)),
                                    simulate_s)
                             if "noskip" in passes else 0.0),
        "memctrl.write_attempts": attempts,
        "memctrl.write_pick_yield": (
            1.0 - total("mcWriteNoCandidate") / attempts if attempts
            else 0.0),
        "memctrl.wpq_occupancy": weighted("wpqOccupancy"),
        "memctrl.lpq_occupancy": weighted("lpqOccupancy"),
        "nvm.writes": total("nvmWrites"),
        "logging.log_writes_dropped": total("logWritesDropped"),
        "cache.l3_miss_ratio": _ratio(
            total("l3Misses"), total("l3Hits") + total("l3Misses")),
        "check.s": check_s,
        "check.events": events,
        "check.ns_per_event": _ratio(check_s * 1e9, events),
        "crash.pair_s": pair_s,
        "crash.points": total("points", crashes),
        "crash.violations": (total("badPoints", crashes)
                             + total("checkViolations", crashes)),
        "crash.serialize_s": (
            pair_s - secs("crash.pair", ("noserialize",))
            if "noserialize" in passes else 0.0),
        "trace.overhead_pct":
            100.0 * (passes["traced"]["wall_s"] - plain) / plain,
    }


def evaluate(doc, trace):
    """The benchmark's result object for one driver document."""
    attempted, failed, digests = judge(doc)
    values = per_layer(doc) if trace else end_to_end(doc, attempted, failed)
    if tuple(values) != (PER_LAYER if trace else END_TO_END):
        raise ValueError("metrics differ from BENCHMARK.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in values.items()},
    }, digests
