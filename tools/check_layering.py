#!/usr/bin/env python3
"""Layering lint: the protocol stack must not name concrete infrastructure.

Three rules keep the protocol stack substitutable; a fourth keeps pool
wiring in one place, a fifth keeps each wire layout in one place, and a
sixth keeps each statistic in one place:

1. Executors. Everything in src/{net,gcs,replication,client,fault} (and
   src/core, which is executor-free entirely) is written against
   runtime::Executor, so the same code runs under the discrete-event
   simulator and the real-time loop. Including sim/simulator.hpp — or the
   runtime headers that name the concrete implementations — from those
   layers would silently re-couple the stack to one runtime.

2. Telemetry exporters. Protocol layers may depend on the obs *interfaces*
   (obs/metrics.hpp, obs/trace.hpp, obs/snapshot.hpp) to record what
   happened, but never on the concrete sinks/exporters (obs/sinks.hpp,
   obs/export.hpp): the choice of export format (JSONL, Prometheus text,
   Chrome trace) belongs to composition roots, and a protocol file naming
   a sink could smuggle I/O into the deterministic hot path.

3. Transports. Everything above src/net — including src/harness, which
   must stay backend-agnostic so the same Scenario can one day run over
   sockets — is written against net::Transport (net/transport.hpp).
   Including net/loopback.hpp, net/udp_transport.hpp, or net/chaos.hpp
   from those layers would hard-wire the stack to one backend (or one
   fault-injection implementation); concrete transports are constructed
   only in composition roots (examples, tests, benches) or through the
   make_loopback_transport() / make_chaos_transport() factories.

4. Testbed. An in-process replica pool (executor, transport, directory,
   endpoints, replicas, clients) is wired in one place, harness::Testbed.
   examples/ and src/runner/ build their pools through it and may not
   construct a gcs::Endpoint or a replication::ReplicaServer themselves.
   The one exemption is live_cli's --role path (run_multiproc), which
   builds a single node per OS process, not a pool.

5. Wire layouts. A message states its layout once, as a field list that
   the walkers in net/codec.hpp encode, decode and size. Outside src/net
   no protocol layer names net::Reader or net::Writer, so a new message
   type cannot bring back a hand-written encode/decode pair that the
   field list would have to mirror.

6. Statistics. A protocol component counts an event in its stats struct,
   whose field list (obs/mirrored_stats.hpp) binds each counter field to
   the registry counter named after it. No file in src/{gcs,replication,
   client,fault,shard} names obs::Counter, so no counter can come back as
   a hand-registered reference that each event must bump beside its field.
   src/net (the transport's own counters) and src/obs are exempt.

Composition roots (src/runner, tests, benches, examples) are allowed to
name all of these; that is where executors, exporters, and transports are
built. src/harness is a composition root for executors and exporters but
not for transports (rule 3).

Exits non-zero listing every offending include, construction, or use.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Layers that must stay runtime- and exporter-agnostic.
PROTOCOL_DIRS = ["src/net", "src/gcs", "src/replication", "src/client",
                 "src/fault", "src/core", "src/shard"]

# Headers naming a concrete executor.
FORBIDDEN_EXECUTORS = [
    "sim/simulator.hpp",
    "runtime/sim_executor.hpp",
    "runtime/realtime_executor.hpp",
]

# Headers naming a concrete telemetry exporter.
FORBIDDEN_EXPORTERS = [
    "obs/sinks.hpp",
    "obs/export.hpp",
]

FORBIDDEN = {h: "concrete executor" for h in FORBIDDEN_EXECUTORS}
FORBIDDEN.update({h: "concrete telemetry exporter"
                  for h in FORBIDDEN_EXPORTERS})

# Layers that must stay transport-agnostic: everything above src/net,
# including the harness (rule 3). src/net itself implements the backends.
TRANSPORT_AGNOSTIC_DIRS = ["src/gcs", "src/replication", "src/client",
                           "src/fault", "src/core", "src/shard",
                           "src/harness"]

# Headers naming a concrete transport backend. The chaos decorator counts:
# protocol layers and fault schedules reach every fault knob through
# net::FaultInjection on a transport built via make_chaos_transport(), so
# naming ChaosTransport above src/net would couple them to the class
# rather than the interface.
FORBIDDEN_TRANSPORTS = {
    "net/loopback.hpp": "concrete transport backend",
    "net/udp_transport.hpp": "concrete transport backend",
    "net/chaos.hpp": "concrete transport decorator",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^">]+)[">]')

# Rule 4: directories that build pools only through harness::Testbed.
TESTBED_ONLY_DIRS = ["examples", "src/runner"]

# A construction of a gcs::Endpoint or ReplicaServer: make_unique<T>(...),
# a named variable `T name(...)` / `T name{...}`, or a temporary `T(...)`.
# References and pointers (`T&`, `T*`) are not constructions.
CONSTRUCT_RE = re.compile(
    r'\b(gcs::Endpoint|ReplicaServer)\b(?:>\s*[({]|\s+\w+\s*[({]|\s*[({])')

# (file, function) whose body may construct them: live_cli's single-node
# --role path.
TESTBED_EXEMPT = {("examples/live_cli.cpp", "run_multiproc")}


def scan(dirs, forbidden, what):
    violations = []
    for layer in dirs:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                match = INCLUDE_RE.match(line)
                if match and match.group(1) in forbidden:
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"{what} includes {match.group(1)} "
                        f"({forbidden[match.group(1)]})")
    return violations


def exempt_lines(relpath, lines):
    """Line numbers inside a TESTBED_EXEMPT function: from its signature
    at column 0 to the next closing brace at column 0."""
    exempt = set()
    for path, function in TESTBED_EXEMPT:
        if path != relpath:
            continue
        inside = False
        for lineno, line in enumerate(lines, start=1):
            if re.match(r'^\S.*\b%s\(' % function, line):
                inside = True
            if inside:
                exempt.add(lineno)
                if line.startswith("}"):
                    inside = False
    return exempt


def scan_constructions():
    violations = []
    for layer in TESTBED_ONLY_DIRS:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            relpath = str(path.relative_to(REPO))
            lines = path.read_text(encoding="utf-8").splitlines()
            exempt = exempt_lines(relpath, lines)
            for lineno, line in enumerate(lines, start=1):
                match = CONSTRUCT_RE.search(line.split("//")[0])
                if match and lineno not in exempt:
                    violations.append(
                        f"{relpath}:{lineno}: constructs {match.group(1)} "
                        "(build in-process pools through harness::Testbed)")
    return violations


# Rule 5: protocol layers above src/net, and the byte-level codec types
# they must not name (in code; comments may).
FIELD_LIST_DIRS = [d for d in PROTOCOL_DIRS if d != "src/net"]
BYTE_CODEC_RE = re.compile(r'\b(?:net::)?(Reader|Writer)\b')


def scan_byte_codec():
    violations = []
    for layer in FIELD_LIST_DIRS:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                match = BYTE_CODEC_RE.search(line.split("//")[0])
                if match:
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: names "
                        f"net::{match.group(1)} (declare the layout as a "
                        "field list; see net/codec.hpp)")
    return violations


# Rule 6: protocol layers whose counters go through a stats field list.
STATS_FIELD_LIST_DIRS = ["src/gcs", "src/replication", "src/client",
                         "src/fault", "src/shard"]
COUNTER_RE = re.compile(r'\b(?:obs::)?Counter\b')


def scan_counters():
    violations = []
    for layer in STATS_FIELD_LIST_DIRS:
        for path in sorted((REPO / layer).rglob("*")):
            if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
                continue
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                if COUNTER_RE.search(line.split("//")[0]):
                    violations.append(
                        f"{path.relative_to(REPO)}:{lineno}: names "
                        "obs::Counter (list the counter in its stats "
                        "struct's fields(); see obs/mirrored_stats.hpp)")
    return violations


def main() -> int:
    violations = scan(PROTOCOL_DIRS, FORBIDDEN, "protocol layer")
    violations += scan(TRANSPORT_AGNOSTIC_DIRS, FORBIDDEN_TRANSPORTS,
                       "transport-agnostic layer")
    violations += scan_constructions()
    violations += scan_byte_codec()
    violations += scan_counters()
    if violations:
        print("layering violations (protocol code must depend only on "
              "runtime/executor.hpp, net/transport.hpp, and the obs "
              "interfaces; pools are wired only by harness::Testbed; wire "
              "layouts and statistics are field lists):",
              file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"layering OK: {len(PROTOCOL_DIRS)} protocol layers depend only "
          "on the Executor interface and obs interfaces; "
          f"{len(TRANSPORT_AGNOSTIC_DIRS)} layers name only net::Transport; "
          f"{len(TESTBED_ONLY_DIRS)} directories build pools only through "
          "harness::Testbed; "
          f"{len(FIELD_LIST_DIRS)} layers name no byte-level codec type; "
          f"{len(STATS_FIELD_LIST_DIRS)} layers name no obs::Counter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
