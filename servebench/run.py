#!/usr/bin/env python3
"""Serving benchmark: one command, four workloads, verified responses.

Run from the root of a source checkout:

    python3 servebench/run.py --workload score-hot --seed 1 --seconds 20 --trace 0

It builds the shipped `serve` and `router` binaries and the `servegen`
load generator from source, starts the servers at their defaults (only
the flags that define the workload are passed), measures set-up time,
drives the workload over loopback, verifies every response, and prints
`# ` lines for people followed by one JSON line with the metrics:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
See servebench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("score-hot", "score-cold", "ingest-mix", "routed")
# Set-ups per run, back to back; the last one serves the timed phase.
# Set-up time is the median of all of them.
SETUPS = 3
SPAWN_TIMEOUT_S = 60.0
# At granted share g the CPU time the hypervisor grants runs at
# g**CONTENTION of full speed; the same value as CONTENTION in
# src/main.rs (see README.md, "At full host speed").
CONTENTION = 0.25
CLK_TCK = os.sysconf("SC_CLK_TCK")


def log(msg):
    print(f"# {msg}", flush=True)


def fail(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "taxo-bench", "--bin", "serve", "--bin", "router"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "servebench", "Cargo.toml")],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")
    binaries = {name: os.path.join(target_dir, "release", name) for name in ("serve", "router", "servegen")}
    for path in binaries.values():
        if not os.path.isfile(path):
            fail(f"build produced no {path}")
    return binaries


def host_speed_ms():
    """A fixed loop that depends on no repository code."""
    t = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t) * 1e3


def host_ticks():
    """(busy, steal) ticks summed over this machine's CPUs, from /proc/stat.

    Busy is user + nice + system + irq + softirq; steal is time a CPU
    wanted to run but the hypervisor ran something else.
    """
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


def source_digest(root):
    """Digest of the sources the benchmark builds (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "servebench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            rel = os.path.relpath(f, root)
            if rel.endswith((".rs", ".toml", ".lock", ".py", ".md")):
                h.update(rel.encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Fleet:
    """The server processes of one set-up; always stopped and reaped."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.procs = []  # (name, Popen, addr)

    def spawn(self, name, argv):
        err = open(os.path.join(self.run_dir, f"{name}.err"), "w")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL)
        err.close()
        self.procs.append([name, proc, None])
        return len(self.procs) - 1

    def wait_listening(self, idx, deadline):
        name, proc, _ = self.procs[idx]
        buf = b""
        fd = proc.stdout.fileno()
        while b"\n" not in buf:
            left = deadline - time.perf_counter()
            if left <= 0 or proc.poll() is not None:
                raise RuntimeError(f"{name} did not start listening; see {name}.err")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"{name} exited before listening")
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise RuntimeError(f"{name} printed {line!r} instead of its address")
        addr = line.rsplit(" ", 1)[1]
        self.procs[idx][2] = addr
        return addr

    def health(self, idx, deadline):
        host, port = self.procs[idx][2].rsplit(":", 1)
        while True:
            try:
                with socket.create_connection((host, int(port)), timeout=5) as s:
                    s.sendall(b'{"kind":"health","id":1}\n')
                    reply = s.makefile("r").readline()
                if json.loads(reply).get("ok") is True:
                    return
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{self.procs[idx][0]} never answered health")
            time.sleep(0.005)

    def pids(self):
        return [p.pid for _, p, _ in self.procs]

    def addrs(self):
        return [a for _, _, a in self.procs]

    def peak_rss_mb(self):
        total_kb = 0
        for name, proc, _ in self.procs:
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self):
        """Asks every server to shut down, then kills whatever is left; reaps all."""
        for _, proc, addr in self.procs:
            if addr and proc.poll() is None:
                host, port = addr.rsplit(":", 1)
                try:
                    with socket.create_connection((host, int(port)), timeout=2) as s:
                        s.sendall(b'{"kind":"shutdown","id":1}\n')
                        s.settimeout(2)
                        s.recv(256)
                except OSError:
                    pass
        deadline = time.perf_counter() + 5
        for _, proc, _ in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout:
                proc.stdout.close()
        self.procs = []


def workload_flags(workload, run_dir, setup_no):
    if workload == "score-cold":
        return ["--score-cache", "1", "--resp-cache", "1"]
    if workload == "ingest-mix":
        data_dir = os.path.join(run_dir, f"wal-{setup_no}")
        return ["--data-dir", data_dir]
    return []


def set_up(fleet, bins, workload, run_dir, setup_no):
    """Starts the workload's servers; returns seconds from the first spawn until all answer health."""
    local = ["--addr", "127.0.0.1:0"]
    t0 = time.perf_counter()
    deadline = t0 + SPAWN_TIMEOUT_S
    if workload == "routed":
        shards = [fleet.spawn(f"shard{i}", [bins["serve"]] + local) for i in range(2)]
        addrs = [fleet.wait_listening(i, deadline) for i in shards]
        router = fleet.spawn("router", [bins["router"], "--shards", ",".join(addrs)] + local)
        fleet.wait_listening(router, deadline)
        # The router's own process goes first: it is the front door.
        fleet.procs.insert(0, fleet.procs.pop(router))
    else:
        idx = fleet.spawn("serve", [bins["serve"]] + local + workload_flags(workload, run_dir, setup_no))
        fleet.wait_listening(idx, deadline)
    for i in range(len(fleet.procs)):
        fleet.health(i, deadline)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(os.path.join(root, "crates")):
        fail("run from the root of a source checkout (no Cargo.toml and crates/ here)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    bins = build(root, target_dir)

    run_dir = os.path.join(root, ".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    fleet = Fleet(run_dir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    gen_out = None
    try:
        # Each set-up is timed by the clock, then read at full host speed
        # from the share g of the CPU time the machine wanted meanwhile
        # that the hypervisor granted (the judged figure).
        host_before = host_speed_ms()
        setups_raw, setups = [], []
        for k in range(SETUPS):
            if k > 0:
                fleet.stop()
            busy0, steal0 = host_ticks()
            wall = set_up(fleet, bins, args.workload, run_dir, k)
            busy1, steal1 = host_ticks()
            busy, stolen = busy1 - busy0, steal1 - steal0
            setups_raw.append(wall)
            g = busy / (busy + stolen) if busy + stolen else 1.0
            setups.append(wall * g ** (1 + CONTENTION))
        gen_argv = [
            bins["servegen"], "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--targets", ",".join(fleet.addrs()), "--pids", ",".join(map(str, fleet.pids())),
            "--clk-tck", str(CLK_TCK), "--run-dir", run_dir,
        ]
        if args.trace:
            gen_argv += ["--trace-out", os.path.join(root, ".bench_trace", f"{args.workload}.spans.jsonl")]
        try:
            gen = subprocess.run(gen_argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 timeout=args.seconds + 120)
        except subprocess.TimeoutExpired:
            fail("the load generator did not finish in time")
        peak_rss = fleet.peak_rss_mb()
        n_servers = len(fleet.pids())
        gen_out = gen
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        fail(str(e))
    finally:
        fleet.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    host_after = host_speed_ms()

    lines = gen_out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if gen_out.stderr.strip():
        for line in gen_out.stderr.strip().splitlines()[-20:]:
            print(f"# servegen: {line}")
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not result:
        fail(f"the load generator printed no result (exit {gen_out.returncode})")

    log(f"setup_s samples at full host speed {', '.join(f'{s:.4f}' for s in setups)} "
        f"(median of n={len(setups)}); by the clock {', '.join(f'{s:.4f}' for s in setups_raw)} (not judged)")
    log(f"peak_rss_mb {peak_rss:.3f} at the end (VmHWM summed over {n_servers} server process(es))")
    log(f"revision {git_revision(root)}, source digest {source_digest(root)}, profile release, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()!r}, timed {args.seconds:g}s")
    log(f"host speed reference: {host_before:.2f} ms before, {host_after:.2f} ms after (fixed loop, not a metric)")

    metrics = {}
    units = {"score_rps": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    if args.trace == 0:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["metrics"].setdefault("peak_rss_mb", peak_rss)
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": units.get(name, "us")}
    else:
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    correct = gen_out.returncode == 0 and result["failed"] == 0
    if not correct:
        log(f"FAILED: {result.get('first_failure')}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


def layer_unit(name):
    if name.endswith("_ratio") or name == "wal.fsyncs_per_ack":
        return "ratio"
    if name == "batch_scorer.ns_per_pair":
        return "ns"
    for suffix in ("us", "ns", "ms", "s"):
        if name.endswith("_" + suffix):
            return suffix
    return "count"


if __name__ == "__main__":
    main()
