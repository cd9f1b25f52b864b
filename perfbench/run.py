#!/usr/bin/env python3
"""Loopback-TCP cost ledger for the secure store.

Builds the `ledger` binary from the repository's sources, runs one workload
on a real n=4, b=1 deployment (one server process per replica, loopback
TcpTransport, one load-generator process) and prints, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload sensor-write --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20          # every workload, one table
    python3 perfbench/run.py --workload community-mw --repeat 5   # spread report

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
See perfbench/README.md for the workloads, topology and metric definitions.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE = ROOT / ".perfbench"
BUILD = STATE / "build"
N_SERVERS = 4
# Engine metrics carry a per-server prefix ("server.<id>.storage.*").
STORAGE = r"server\.\d+\.storage\."
RUN_TIMEOUT_S = 170
# Counters of rejected or malformed traffic; any nonzero count fails a run.
REJECTED = r"gossip\.records_rejected.*|(rpc|gossip)\.malformed_dropped.*"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_us_per_op": "us",
    "server_rss_mb": "MiB",
    "restart_s": "s",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: the store's sources (src/) are not next to the benchmark")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "ledger", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "ledger"


# --- one run ----------------------------------------------------------------


def ledger_args(workload, spec, seed, seconds, trace, work):
    return [
        "gen",
        "--workload", workload,
        "--seed", str(seed),
        "--policy", spec["policy"],
        "--engine", spec["engine"],
        "--items", str(spec["items"]),
        "--owners", str(spec["owners"]),
        "--value-bytes", str(spec["value_bytes"]),
        "--write-frac", str(spec["write_frac"]),
        "--zipf", str(spec["zipf"]),
        "--preload", str(spec["preload"]),
        "--closed-ops", str(int(spec["closed_ops_per_s"] * seconds)),
        "--open-ops", str(int(spec["open_ops_per_s"] * seconds)),
        "--open-rate", str(spec["open_rate"]),
        "--gossip-ms", str(spec["gossip_ms"]),
        "--setups", "1" if trace else str(spec["setups"]),
        "--trace", "1" if trace else "0",
        "--dir", str(work),
    ]


def run_ledger(binary, args):
    proc = subprocess.Popen([str(binary), *args], stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: ledger run timed out")
    finally:
        # The server hosts are in the ledger's session; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: ledger exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1])


# --- report parsing helpers -------------------------------------------------


def percentile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def registry(snapshot_entry):
    """Registry JSON (obs::to_json rows) -> counters, gauges, histograms."""
    counters, gauges, hists = {}, {}, {}
    for row in snapshot_entry["registry"]["rows"]:
        if row["kind"] == "counter":
            counters[row["metric"]] = row["value"]
        elif row["kind"] == "gauge":
            gauges[row["metric"]] = row["value"]
        else:
            hists[row["metric"]] = row
    return counters, gauges, hists


class Interval:
    """Deltas of every exported number between two snapshots."""

    def __init__(self, before, after):
        self.servers = []
        for b, a in zip(before["servers"], after["servers"]):
            self.servers.append((b, a, registry(b), registry(a)))
        self.gen_before, self.gen_after = before["loadgen"], after["loadgen"]
        self.gen_reg = (registry(before["loadgen"]), registry(after["loadgen"]))

    def counter(self, name_re):
        total = 0
        for _, _, (cb, _, _), (ca, _, _) in self.servers:
            for name, value in ca.items():
                if re.fullmatch(name_re, name):
                    total += value - cb.get(name, 0)
        return total

    def gauge_after(self, name_re):
        return [sum(v for n, v in ga.items() if re.fullmatch(name_re, n))
                for _, _, _, (_, ga, _) in self.servers]

    def gauge_delta(self, name):
        return sum(ga.get(name, 0) - gb.get(name, 0)
                   for _, _, (_, gb, _), (_, ga, _) in self.servers)

    @staticmethod
    def _hist_delta(hb, ha, name_re):
        count, total, buckets, bounds = 0, 0.0, None, None
        for name, row in ha.items():
            if not re.fullmatch(name_re, name):
                continue
            prev = hb.get(name)
            count += row["count"] - (prev["count"] if prev else 0)
            total += row["sum_us"] - (prev["sum_us"] if prev else 0.0)
            delta = [c - (prev["bucket_counts"][i] if prev else 0)
                     for i, c in enumerate(row["bucket_counts"])]
            if buckets is None:
                buckets, bounds = delta, row["bounds"]
            elif len(delta) == len(buckets):
                buckets = [x + y for x, y in zip(buckets, delta)]
        return count, total, buckets, bounds

    def server_hist(self, name_re):
        count, total, buckets, bounds = 0, 0.0, None, None
        for _, _, (_, _, hb), (_, _, ha) in self.servers:
            c, t, bk, bd = self._hist_delta(hb, ha, name_re)
            count += c
            total += t
            if bk is not None:
                if buckets is None:
                    buckets, bounds = bk, bd
                else:
                    buckets = [x + y for x, y in zip(buckets, bk)]
        return count, total, buckets, bounds

    def gen_hist(self, name_re):
        return self._hist_delta(self.gen_reg[0][2], self.gen_reg[1][2], name_re)

    def gen_counter(self, name_re):
        cb, ca = self.gen_reg[0][0], self.gen_reg[1][0]
        return sum(v - cb.get(n, 0) for n, v in ca.items() if re.fullmatch(name_re, n))

    def host(self, key, sub=None):
        total = 0
        for b, a, _, _ in self.servers:
            hb, ha = b["host"], a["host"]
            total += (ha[key][sub] - hb[key][sub]) if sub else (ha[key] - hb[key])
        return total

    def host_after(self, key):
        return [a["host"][key] for _, a, _, _ in self.servers]

    def gen(self, key, sub=None):
        if sub:
            return self.gen_after[key][sub] - self.gen_before[key][sub]
        return self.gen_after[key] - self.gen_before[key]


def hist_mean(h):
    count, total = h[0], h[1]
    return total / count if count else 0.0


def hist_quantile(h, q):
    count, _, buckets, bounds = h
    if not count or buckets is None:
        return 0.0
    rank = q * count
    seen = 0
    for i, c in enumerate(buckets):
        if seen + c >= rank and c > 0:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else bounds[-1]
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return bounds[-1]


def cpu_delta(phase, role="total_ns", procs=None, window=""):
    """CPU nanoseconds of `role` threads over the phase ("" = tight window
    around the phase alone, "wide_" = also spanning its snapshots)."""
    procs = range(N_SERVERS + 1) if procs is None else procs
    after, before = phase[f"cpu_{window}after"], phase[f"cpu_{window}before"]
    return sum(after[i][role] - before[i][role] for i in procs)


def phase_named(report, name):
    for phase in report["phases"]:
        if phase["name"] == name:
            return phase
    raise KeyError(name)


# --- metrics ----------------------------------------------------------------


def end_to_end(report):
    closed = phase_named(report, "closed")
    return {
        "setup_s": statistics.median(report["setup_s"]),
        "cpu_us_per_op": cpu_delta(closed) / 1000.0 / max(closed["ok"], 1),
        "server_rss_mb": report["server_rss_hwm_kb"] / 1024.0,
        "restart_s": statistics.median(report["restart_s"]),
    }


def peak_ops_s(report):
    closed = phase_named(report, "closed")
    return closed["ok"] / closed["wall_s"]


def slo(report):
    """Throughput and open-loop latency. Wall-clock figures stretch with
    the host's steal time, so they are reported, not gated (README.md)."""
    open_ = phase_named(report, "open")
    writes, reads = open_["write_ms"], open_["read_ms"]
    return {
        "slo.peak_ops_s": peak_ops_s(report),
        "slo.write_p50_ms": percentile(writes, 0.50),
        "slo.write_p99_ms": percentile(writes, 0.99),
        "slo.read_p50_ms": percentile(reads, 0.50),
        "slo.read_p99_ms": percentile(reads, 0.99),
        "slo.steal_frac": open_["steal_frac"],
    }


def beyond(values):
    """Samples strictly above the pooled p99."""
    p99 = percentile(values, 0.99)
    return sum(1 for v in values if v > p99)


def batch_cost(unit, batch_mean):
    """us per signature of a batch verify at the observed mean batch size
    (log-linear interpolation between the measured power-of-two sizes)."""
    table = sorted((int(k), v) for k, v in unit["batch_us_per_sig"].items())
    size = min(max(batch_mean, table[0][0]), table[-1][0])
    for (s0, v0), (s1, v1) in zip(table, table[1:]):
        if s0 <= size <= s1:
            t = (math.log(size) - math.log(s0)) / (math.log(s1) - math.log(s0))
            return v0 + (v1 - v0) * t
    return table[0][1]


def per_layer(report, spec):
    closed, open_ = phase_named(report, "closed"), phase_named(report, "open")
    references = [phase_named(report, "closed_untraced_a"), phase_named(report, "closed_untraced_b")]
    unit = report["unit_costs"]
    c = Interval(closed["snap_before"], closed["snap_after"])
    o = Interval(open_["snap_before"], open_["snap_after"])
    both = Interval(closed["snap_before"], open_["snap_after"])
    ops = max(closed["ok"], 1)
    total_us = cpu_delta(closed) / 1000.0
    gen = [N_SERVERS]
    servers = range(N_SERVERS)

    signs = c.host("signs") + c.gen("signs")
    server_verifies = c.host("verifies")
    gen_verifies = c.gen("verifies")
    batch = c.server_hist(r"server\.batch_size")
    batch_mean = hist_mean(batch) or 1.0
    batch_us = batch_cost(unit, batch_mean)
    crypto_us = signs * unit["sign_us"] + gen_verifies * unit["verify_us"] + server_verifies * batch_us

    server_busy_ns = c.host("deliveries", "cpu_ns") + c.host("callbacks", "cpu_ns")
    gen_busy_ns = c.gen("deliveries", "cpu_ns") + c.gen("callbacks", "cpu_ns")
    issue_ns = c.gen("issue", "cpu_ns")
    requests = c.counter(r"server\.req\..*")
    io_ns = cpu_delta(closed, "io_ns")
    # The ledger compares busy time with the wide window, which encloses
    # the snapshots that bracket the busy counters.
    attributed_ns = (server_busy_ns + gen_busy_ns + cpu_delta(closed, "io_ns", window="wide_")
                     + cpu_delta(closed, "engine_ns", servers, window="wide_"))
    wide_total_ns = cpu_delta(closed, window="wide_")

    msgs = c.gauge_delta("transport.messages_sent") + c.gen("messages_sent")
    sent_bytes = c.gauge_delta("transport.bytes_sent") + c.gen("bytes_sent")
    drops = c.gauge_delta("transport.messages_dropped") + c.gen("messages_dropped")

    wal_sync = c.server_hist(r"server\.wal\.sync_us")
    user_bytes = (closed["writes_ok"] + open_["writes_ok"]) * spec["value_bytes"]
    disk_written = sum(open_["cpu_after"][i]["io_write_bytes"] - closed["cpu_before"][i]["io_write_bytes"]
                       for i in servers)
    live_bytes = report["acked_items"] * spec["value_bytes"] * N_SERVERS
    lag = [max(a, b) for a, b in zip(c.gauge_after(STORAGE + "compaction_lag_us"),
                                     o.gauge_after(STORAGE + "compaction_lag_us"))]
    traced_cpu = total_us / ops
    ref_cpu = (sum(cpu_delta(p) for p in references) / 1000.0
               / max(sum(p["ok"] for p in references), 1))

    metrics = {
        "crypto.signs_per_op": signs / ops,
        "crypto.verifies_per_op": (server_verifies + gen_verifies) / ops,
        "crypto.sign_us": unit["sign_us"],
        "crypto.verify_us": unit["verify_us"],
        "crypto.batch_verify_us_per_sig": batch_us,
        "crypto.cpu_share": crypto_us / total_us if total_us else 0.0,
        "client.issue_us_per_op": issue_ns / 1000.0 / ops,
        "client.reply_us_per_op": (gen_busy_ns - issue_ns) / 1000.0 / ops,
        "client.write.sign_us": hist_mean(c.gen_hist(r"client\.p\d\.write\.sign_us")),
        "client.write.quorum_us": hist_mean(c.gen_hist(r"client\.p\d\.write\.quorum_us")),
        "client.read.quorum_us": hist_mean(c.gen_hist(r"client\.p\d\.read\.quorum_us")),
        "client.read.verify_us": hist_mean(c.gen_hist(r"client\.p\d\.read\.verify_us")),
        "client.retries_per_op": c.gen_counter(r"client\.p\d\.(write|read)\.retries") / ops,
        "net.msgs_per_op": msgs / ops,
        "net.bytes_per_op": sent_bytes / ops,
        "net.io_cpu_us_per_op": io_ns / 1000.0 / ops,
        "net.ring_highwater": max(c.gauge_after(r"transport\.ring_highwater")),
        "net.drops": drops,
        "server.busy_us_per_req": c.host("deliveries", "cpu_ns") / 1000.0 / max(requests, 1),
        "server.busy_us_per_op": server_busy_ns / 1000.0 / ops,
        "server.batch_size_mean": batch_mean,
        "server.apply_us": hist_mean(c.server_hist(r"server\.apply_us")),
        "server.shed_frac": c.counter(r"server\.shed") / max(requests, 1),
        "server.stall_ms_max": max(c.host_after("stall_max_ns")) / 1e6,
        "server.stall_ms_p99": max(c.host_after("stall_p99_ns")) / 1e6,
        "wal.append_us": hist_mean(c.server_hist(r"server\.wal\.append_us")),
        "wal.sync_us": hist_mean(wal_sync),
        "wal.syncs_per_s": wal_sync[0] / closed["wall_s"],
        "wal.bytes_per_op": c.host("wal_bytes") / ops,
        "lsm.flushes": both.counter(STORAGE + r"flushes"),
        "lsm.compactions": both.counter(STORAGE + r"compactions"),
        "lsm.write_amp": disk_written / user_bytes if user_bytes else 0.0,
        "lsm.space_amp": report["data_bytes_end"] / live_bytes if live_bytes else 0.0,
        "lsm.compaction_lag_max": max(lag),
        "lsm.sst_files_end": sum(o.gauge_after(STORAGE + "sst_files")),
        "gossip.records_per_write": c.counter(r"gossip\.records_received") / max(closed["writes_ok"], 1),
        "gossip.round_ms_mean": hist_mean(c.server_hist(r"gossip\.round_us")) / 1000.0,
        "gossip.visible_lag_ms_p50": hist_quantile(c.server_hist(r"gossip\.write_to_visible_us"), 0.5) / 1000.0,
        "gossip.rejected": both.counter(r"gossip\.records_rejected"),
        "loadgen.late_ms_p99": percentile(open_["late_ms"], 0.99),
        "loadgen.dispatch_cpu_frac": cpu_delta(open_, "dispatch_ns", gen) / 1e9 / open_["wall_s"],
        "loadgen.samples_write": len(open_["write_ms"]),
        "loadgen.samples_read": len(open_["read_ms"]),
        "loadgen.samples_beyond_write_p99": beyond(open_["write_ms"]),
        "loadgen.samples_beyond_read_p99": beyond(open_["read_ms"]),
        "ledger.attributed_frac": attributed_ns / wide_total_ns if wide_total_ns else 0.0,
        "trace.overhead_frac": traced_cpu / ref_cpu - 1.0 if ref_cpu else 0.0,
        "codec.write_req_encode_us": unit["write_req_encode_us"],
        "codec.write_req_decode_us": unit["write_req_decode_us"],
        "codec.read_resp_encode_us": unit["read_resp_encode_us"],
        "codec.read_resp_decode_us": unit["read_resp_decode_us"],
    }
    return metrics


def correctness(report):
    """Every reason the run is not correct (empty list = correct)."""
    problems = []
    oracle = report["oracle"]
    if oracle["violations"]:
        problems.append(f"{oracle['violations']} oracle violations: {oracle['report'][:500]}")
    if oracle["checks"] == 0:
        problems.append("the oracle checked nothing")
    # Counters start at zero in every process, and a killed or torn-down
    # process takes its counts with it. The snapshots taken just before each
    # exit, plus the final one, cover every process from launch to its end.
    for snap in [*report["before_exit"], report["final"]]:
        entries = [(f"server {i}", e) for i, e in enumerate(snap["servers"])]
        for who, entry in [*entries, ("loadgen", snap["loadgen"])]:
            counters, _, _ = registry(entry)
            for name, value in counters.items():
                if value and re.fullmatch(REJECTED, name):
                    problems.append(f"{snap['label']}: {who}: {name} = {value}")
    if not report["unit_costs"]["self_check"]:
        problems.append("unit-cost self check failed")
    return problems


def run_once(workload, seed, seconds, trace, binary=None):
    specs = json.loads((BENCH_DIR / "workloads.json").read_text())
    if workload not in specs:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; have {sorted(specs)}")
    spec = specs[workload]
    binary = binary or build()
    work = STATE / "runs" / f"{workload}-{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = run_ledger(binary, ledger_args(workload, spec, seed, seconds, trace, work))
        if trace:
            traces = STATE / "traces" / workload
            shutil.rmtree(traces, ignore_errors=True)
            traces.mkdir(parents=True)
            for path in list(work.glob("TRACE_*.json")) + list((work / "data").glob("TRACE_*.json")):
                shutil.move(str(path), traces / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = report["phases"]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] + p["refused"] + p["overflow"] for p in phases)
    problems = correctness(report)
    if trace:
        values = dict(slo(report), **per_layer(report, spec))
        values["loadgen.failed_frac"] = failed / attempted if attempted else 0.0
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(report).items()}
    provenance = dict(report["provenance"], unit_costs=report["unit_costs"],
                      setup_s_all=report["setup_s"], restart_s_all=report["restart_s"],
                      oracle_checks=report["oracle"]["checks"], acked_items=report["acked_items"],
                      peak_ops_s=round(peak_ops_s(report), 1),
                      steal_frac={p["name"]: round(p["steal_frac"], 4) for p in report["phases"]})
    for p in problems:
        log("perfbench: CORRECTNESS:", p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, provenance


def per_layer_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    return {m["name"]: m["unit"] for m in declared.get("per_layer", [])}


# --- modes --------------------------------------------------------------------


def spread(workload, seeds, seconds, trace):
    binary = build()
    rows = {}
    for seed in seeds:
        result, provenance = run_once(workload, seed, seconds, trace, binary)
        log(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
            f"steal={provenance['steal_frac']} peak_ops_s={provenance['peak_ops_s']} "
            + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, values in rows.items():
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        rel = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(values):12.4f} {max(values):12.4f} {rel:8.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="sizes the fixed op counts of the phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="spread mode: k runs on seeds seed..seed+k-1")
    args = parser.parse_args()

    if args.repeat:
        spread(args.workload, range(args.seed, args.seed + args.repeat), args.seconds, args.trace)
        return
    if args.workload == "all":
        binary = build()
        specs = json.loads((BENCH_DIR / "workloads.json").read_text())
        for workload in specs:
            result, _ = run_once(workload, args.seed, args.seconds, args.trace, binary)
            print(f"== {workload}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"   {name:34} {m['value']:14.4f} {m['unit']}")
        return
    result, provenance = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
