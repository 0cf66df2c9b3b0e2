// Package repro is a from-scratch Go reproduction of
//
//	CALCioM: Mitigating I/O Interference in HPC Systems through
//	Cross-Application Coordination — Dorier, Antoniu, Ross, Kimpe,
//	Ibrahim. IPDPS 2014.
//
// The library lives under internal/: a deterministic discrete-event engine
// (sim), a fluid contention model (fluid), storage targets with write-back
// caches (disk), a striped parallel file system (pfs), an MPI-like
// application model (mpi), the IOR-derived benchmark (ior), the CALCioM
// coordination layer itself (core), machine-wide efficiency metrics
// (metrics), the ∆-graph harness (delta), SWF workload-trace tooling (swf),
// the per-figure experiment reproductions (experiments), the live
// coordination daemon (wire, server, client), and the coordination-trace
// record/replay subsystem (trace, replay) that re-arbitrates captured
// daemon traffic offline under any policy.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. bench_test.go in this
// directory regenerates every table and figure of the paper's evaluation.
//
// # Architecture: simulator mode and daemon mode
//
// The coordination layer runs in two deployments sharing one arbitration
// core (core.Arbiter: AppView construction, the policy call, decision
// application onto per-app authorization):
//
//   - Simulator mode: core.Layer inside the discrete-event engine. Each
//     application is a simulated process; coordination messages travel with
//     a configured latency; the ∆-graph harness and the figure
//     reproductions run here.
//   - Daemon mode: calciomd (internal/server) serves the same protocol
//     over TCP, sharded by storage target. Real platforms expose many
//     independent targets (PFS servers, burst buffers) and contention is
//     per target, so a coordination domain is one target: core.ArbiterSet
//     keys one core.Arbiter per target, each guarded by its shard's mutex.
//     A coordination frame for an uncontended target (no Wait parked
//     there) runs inline on the connection reader that decoded it, when
//     the shard lock is free; a contended target, a busy lock, and all
//     control, timer, drain and snapshot work queue to the shard's own
//     goroutine. Per-session order is one FIFO across both paths: the
//     shard goroutine dequeues only under the lock, and an inline reader
//     first drains what is already queued. On shutdown each shard
//     goroutine marks its shard stopped under the lock before exiting, so
//     no reader dispatches (or records a trace event) afterwards. A
//     control goroutine owns session lifecycle, and the stats combining
//     layer merges per-target snapshots into the machine-wide wire.Stats
//     (plus a per-target breakdown). Each target's decisions are
//     deterministic given that target's serialized request order, and a
//     grant on one target never convoys behind a holder on another.
//     Clients that never name a target run on the single default
//     target "" — the original single-target daemon, byte for byte (one
//     deliberate stats nuance: an application's stats row appears at its
//     first coordination verb, when it attaches to a target's arbiter,
//     rather than at register — registration alone no longer names a
//     coordination domain).
//     internal/client mirrors the Coordinator/Session API (Client.Target
//     scopes a handle to one target) so driver code is the same shape in
//     both modes, and calciom-load replays SWF traces or synthetic phase
//     mixes over N concurrent connections (-targets N spreads phases
//     round-robin across targets).
//
// The wire protocol (internal/wire) is length-prefixed JSON; one Response
// answers every Request (the Wait response is deferred until arbitration
// grants access), plus unsolicited grant/revoke pushes. Every verb but
// stats takes an optional target: on register it sets the session's
// default target, on the coordination verbs it names the storage target
// whose domain the request addresses (empty = that default; responses echo
// the resolved target):
//
//	register  App, Cores, Target?     introduce the application
//	prepare   Info, Target?           stack MPI_Info-style hints (bytes_total, ...)
//	complete  Target?                 unstack the most recent prepare
//	inform    BytesDone?, Target?     open/continue an I/O phase, trigger arbitration
//	progress  BytesDone, Target?      report progress only; no state change
//	check     Target?                 poll authorization, never blocks
//	wait      Target?                 block until authorized (deferred response)
//	release   BytesDone?, Target?     end one access step
//	end       Target?                 end the I/O phase
//	stats     —                       LASSi-style live metrics snapshot
//
// That JSON framing is protocol version 1 and remains the default: a
// client that never negotiates gets today's protocol, byte for byte. A
// client that wants the binary codec (version 2, internal/wirebin) opens
// with a two-byte hello [0xCB, 2] pipelined in front of its first
// request; the daemon sniffs the first byte — a v1 length prefix always
// starts 0x00 because the frame cap is far below 2^24, so 0xCB is
// unambiguous — answers with the same two bytes, and both directions
// switch. An unknown version closes the connection. Negotiation costs no
// extra round trip, and a session keeps its codec for the connection's
// lifetime (a reconnecting client renegotiates on the fresh connection).
//
// The v2 frame is a uvarint payload length (0 and oversize rejected)
// followed by the payload. A request payload is verb (u8: register=1,
// prepare=2, complete=3, inform=4, progress=5, check=6, wait=7,
// release=8, end=9, stats=10), seq (uvarint), a flags byte, then the
// optional fields in fixed order — target (flag 1), bytes_done (flag 2,
// IEEE-754 bits little-endian), the prepare info map (flag 4, count then
// key/value pairs, keys sorted ascending so encoding is canonical) and
// the register extras app+cores (flag 8, only valid on register).
// Strings are uvarint length + bytes. A response payload is type (u8:
// resp=1, grant=2, revoke=3), seq (uvarint), flags (ok=1, authorized=2,
// err=4, code=8, target=16, stats=32) and the present fields in that
// order; the stats snapshot crosses as a JSON blob (cold path, not worth
// a schema). Decoders reject unknown verbs, unknown flag bits and
// trailing bytes, and intern the small recurring strings (targets, app
// names, error codes), so steady-state encode and decode allocate
// nothing on either side of the wire — the internal/trace discipline
// applied to the protocol. On this workload's grant cycle the wire cost
// drops from ~120 to ~16 bytes per request (see ROADMAP's performance
// table). Per-connection machinery rides along: reused read/write
// buffers, write coalescing (one syscall per flush when the response
// queue drains), -accept-loops listener sharding and -sock-buffer kernel
// socket buffer tuning. A response the codec cannot encode — a stats
// snapshot past wire.MaxFrame — is answered with a "protocol" error under
// the request's seq instead; a request the client cannot encode fails at
// the caller and is never retried.
//
// Version 3 is the mux extension of the binary codec: one physical
// connection carries many logical sessions, each identified by a stream
// id. The negotiation hello is the same two bytes with the version bumped:
//
//	[0xCB, 1]   never sent — absence of a hello IS version 1 (JSON)
//	[0xCB, 2]   binary codec, one session per connection
//	[0xCB, 3]   binary codec + session multiplexing
//	other       unknown version or magic: connection closed
//
// A mux frame is the same uvarint-length-prefixed v2 frame whose payload
// gains one field up front: a uvarint stream id (>= 1; stream 0 is
// rejected in both directions), followed by the unchanged v2 request or
// response payload. Streams are opened implicitly — the first frame
// naming an unknown stream id creates that session daemon-side, with the
// same register deadline a fresh connection gets — and each stream is an
// ordinary session to the arbitration core: per-stream seq spaces,
// grant/revoke pushes, grace windows and resume-by-incarnation all work
// per stream. The transport is where the win is: one reader demuxes all
// inbound frames, and one shared write loop group-commits — each wakeup
// drains every response queued across all streams into one buffered
// writer and flushes once, so K concurrent grant cycles cost ~1 write
// syscall instead of K (client-side writes batch the same way). The v1
// and v2 protocols are untouched: a client that negotiates 2 or nothing
// gets the previous framing byte for byte. Both sides run one connection
// stack for all three framings: a v1 or v2 connection is a one-stream
// link whose implicit stream is its session (dropping it closes the
// connection, and its one stream flushes every frame at once), while a v3
// connection's streams come and go on a connection that stays up.
// TestWireTranscripts pins both directions of every framing, cut and
// resume included, against goldens. client.DialMux is the client
// half (Mux.Client hands out logical *Client streams sharing one socket),
// calciom-load -mux-conns M drives a whole fleet over M sockets, and
// BenchmarkSocketGrantsMux / BenchmarkSocketGrants10k measure it (see
// ROADMAP's performance table: ~3x grant throughput at 256 sessions,
// 10240 live sessions on 64 sockets in-process).
//
// Quickstart (two terminals):
//
//	go run ./cmd/calciomd -listen 127.0.0.1:9595 -policy fcfs
//	go run ./cmd/calciom-load -addr 127.0.0.1:9595 -clients 64 -phases 4 -targets 4
//
// # Trace record and replay
//
// The daemon can record everything its shards did —
// state-mutating requests, explicit re-arbitrations, and the authorization
// flips they produced — into a compact, versioned, append-only event log
// (internal/trace), and internal/replay re-drives such a log through
// core.Arbiter on a virtual clock. That closes the paper's loop as an
// observe → replay → decide pipeline: record live traffic once, then ask
// which coordination strategy fits it, without re-running the applications.
//
// Quickstart (four terminals):
//
//	go run ./cmd/calciomd -listen 127.0.0.1:9595 -record run.trace -admin 127.0.0.1:9596   # 1: record
//	go run ./cmd/calciom-load -addr 127.0.0.1:9595 -clients 64      # 2: traffic
//	curl 127.0.0.1:9596/metrics                                     # 3: observe
//	go run ./cmd/calciom-replay -trace run.trace                    # 4: decide
//
// (calciom-load -record captures the same traffic client-side instead, for
// daemons that cannot record.)
//
// The trace format (version 2): a "CALTRACE" magic, a u16 format version,
// a JSON header (source, recording policy, performance-model constants),
// then little-endian records — every record is a u8 type, f64 timestamp,
// u32 session id and a u16-length-prefixed storage-target name (the shard
// that recorded it; version-1 records have no target field and read back
// as the default target "") plus type-specific extras — and a mandatory
// trailer carrying the recorded and dropped counts:
//
//	register    name, cores      session attached to this target's shard
//	prepare     sorted info map  stacked MPI_Info-style hints
//	complete    —                hint unstacked
//	inform      bytes done?      phase opened/continued (arbitrates)
//	progress    bytes done       progress only, no arbitration
//	check       —                authorization polled
//	wait        —                wait accepted (immediate or deferred)
//	release     bytes done?      access step ended (arbitrates)
//	end         —                phase ended (arbitrates)
//	unregister  —                session left this shard (disconnect/eviction)
//	recheck     —                arbitration not implied by a request
//	grant       —                outcome: authorization flipped on
//	revoke      —                outcome: authorization flipped off
//
// Timestamps are monotone per coordination domain (per target daemon-side,
// per client in captures); the file-level interleaving across shards is
// scheduling noise, which is why replay partitions before re-arbitrating.
//
// Versioning rules (authoritative in internal/trace): magic and version
// never move; unknown versions and record types are rejected; additive
// changes bump the version and newer readers accept older files (a v1
// single-target trace still loads and verifies exactly); a file without a
// trailer is reported as truncated, and the trailer's drop count marks a
// trace lossy — replay refuses it rather than silently diverging.
//
// Recording rides whichever goroutine holds the shard lock without
// touching its guarantees: events travel by value through a fixed-capacity
// channel to a drain goroutine that owns all encoding and file I/O, so the
// hot path neither blocks nor allocates (BenchmarkServerArbitrateRecording: 0
// allocs/op, pinned by TestRecordingStaysAllocFree). Overflow is dropped
// and counted, never waited on — and replay refuses lossy traces rather
// than silently diverging.
//
// Replay mirrors the daemon's sharding: the trace is partitioned into
// per-target streams, each re-arbitrated through its own Arbiter, and the
// results are merged (client captures record one register/unregister per
// session, which the partitioner propagates to every target the session
// touches, at first touch — the daemon's lazy attach, reconstructed).
//
// Replay has two modes. Verify replays a daemon trace under its own
// recorded policy, re-arbitrating exactly where the recording did, and
// requires, per target, the reproduced grant/revoke sequence to match the
// recorded one event for event — exact, because each target's shard
// serializes its coordination under one lock and the trace captures
// that serialized order (the CI daemon-smoke job records a 64-client burst
// and asserts the replayed grant count and sequence match the live run;
// the multi-target smoke does the same per shard). What-if replay
// (replay.Under / replay.Compare) re-arbitrates the same arrival pattern
// under any policy, synthesizing delay-policy rechecks on the virtual
// clock, and derives a per-policy comparison: total and tail wait, the
// same convoy-vs-protocol wait decomposition the live wire.Stats reports,
// permitted-interference overlap, and estimated interference factors and
// CPU-seconds wasted under the paper's equal-share stretch model. The
// replay is open-loop (request instants stay where the recording put
// them), so cross-policy numbers are comparative estimates, not absolute
// predictions; calciom-replay prints the comparison with a recommended
// policy and is byte-identical across runs on one trace.
//
// # Failure model
//
// Daemon mode is engineered so that no single failure wedges an
// application forever and no failure silently corrupts coordination state.
// The contract, failure by failure:
//
//   - Client crash (process death, kill -9): the daemon sees the
//     connection drop. A registered session does not lose its grants
//     immediately — it enters a grace window (grant_grace_s, shorter than
//     the idle session timeout) during which a resumed incarnation can
//     reclaim its name and every grant it held. Only when the grace
//     expires are the session's grants revoked and its targets
//     re-arbitrated, so waiters behind a briefly-disconnected holder
//     resume exactly once, never twice.
//   - Daemon crash (kill -9, node loss): a client built with
//     Options.Reconnect redials with exponential backoff and jitter,
//     re-registers under the same name with a higher incarnation, and
//     replays its in-flight protocol state (stacked prepares, the open
//     phase, a blocking re-wait when it held a grant) so the resumed
//     session is indistinguishable from one that never disconnected.
//     If the daemon stays unreachable past Options.FailOpen, the client
//     degrades to self-granting — coordination is an optimization, not a
//     correctness requirement, so an unreachable daemon must never block
//     I/O forever. Every self-grant and every degraded second is counted
//     locally, reported to the daemon on resume, and folded into
//     wire.Stats per application, so an operator can see exactly how much
//     I/O ran uncoordinated. The daemon's trace survives its crash:
//     the recorder emits periodic sync records and the lenient reader
//     (trace.LoadLenient, calciom-replay/-trace -allow-truncated) reads
//     up to the torn tail and reports the truncation point — a crashed
//     run's surviving prefix still replays and verifies.
//   - Network partition: from each side this is just the cases above —
//     the daemon runs the grace window, the client runs
//     reconnect/fail-open. The internal/chaos proxy (calciom-load
//     -chaos-* flags, the CI chaos smoke) injects exactly these faults —
//     resets at arbitrary byte boundaries, forwarding delay, partition
//     windows — on a seeded deterministic schedule, and the accounting
//     invariant checked after every chaos run is exact:
//     coordinated grants + self-grants == phases run.
//   - Graceful drain (SIGTERM): the daemon stops accepting, answers every
//     parked wait with the retryable "draining" error code instead of
//     leaving it hanging, flushes the trace trailer, and exits clean; a
//     second signal force-closes. Reconnecting clients treat retryable
//     codes as a reconnect trigger, so a drained-and-restarted daemon is
//     a blip, not an outage.
//
// Typed wire error codes (wire.Code*, Response.Retryable) separate the
// transient from the fatal: "draining" is retryable; "stale_incarnation",
// "duplicate", "too_many_targets" and "protocol" are not, and a
// reconnecting client surfaces them instead of retrying forever.
// TestResumeReclaimsGrant and TestReconnectStorm pin the core invariant
// under -race: across forced disconnect and resume of a grant holder, a
// grant is never lost and never duplicated.
//
// # Performance
//
// The evaluation sweeps thousands of ∆-graph points, each a full
// discrete-event run, so the contention hot path is engineered to be
// index-based and allocation-free in steady state:
//
//   - fabric's global max-min solver (progressive filling) runs on scratch
//     arrays kept on the Fabric, indexed by dense link IDs, with slice
//     memberships and swap-delete instead of maps. One refill is
//     O(B·(F·L̄+L)) for B bottleneck rounds, F active flows crossing L̄
//     links each, and L links; it performs zero allocations, and its fixed
//     iteration order makes float accumulation — and therefore every
//     simulated rate — bit-reproducible across runs and GOMAXPROCS
//     settings.
//   - sim recycles fired/cancelled event records through a free list
//     (handles detach at fire time, so stale Cancels are always safe),
//     runs fire-and-forget zero-delay callbacks through the reusable
//     Post ring, and offers owner-managed reusable Timers for the
//     cancel/reschedule-heavy "next completion" pattern.
//   - fluid's Resource and closed-form Solver reuse their water-fill
//     scratch, and delta.Sweep runs on a fixed worker pool with per-worker
//     scratch.
//
// Benchmark methodology: go test -bench=Fabric -benchmem (micro), and
// BenchmarkDeltaSweepFabric for the macro path (a TrueNetwork ∆-sweep).
// Recorded on a Xeon @ 2.10GHz, go1.24, before → after this rewrite:
//
//	BenchmarkFabricReassign     18684 ns/op  26 allocs/op → 1442 ns/op  0 allocs/op  (13.0x)
//	BenchmarkDeltaSweepFabric   2.62 ms/op  11991 allocs  → 0.61 ms/op  7159 allocs  (4.3x)
//	BenchmarkEngineSchedule     90.7 ns/op  32 B/op       → 57.5 ns/op  16 B/op
//	BenchmarkEnginePost         (new fast path)             8.7 ns/op   0 allocs/op
//	BenchmarkEngineProcSleep    sleep/wake cycle           0 allocs/op
//
// TestReassignSteadyStateAllocFree and the determinism regression tests in
// internal/delta pin these properties in CI.
//
// # Platform reuse
//
// The ∆-graph methodology re-runs one scenario at dozens of start offsets,
// and what-if analytics re-evaluate one platform against many schedules.
// internal/platform makes that cheap: it builds the whole simulated
// platform — engine, optional fabric, pfs servers and stores, mpi apps,
// the coordination layer, the IOR runners — once, and Reset re-arms it for
// the next run instead of rebuilding. platform.Pool caches built platforms
// by spec on one engine (the per-sweep-worker reuse point); delta.RunOn,
// the solo calibrations and the figure harnesses all run through it.
//
// The reuse contract, layer by layer — Reset RETAINS capacity, CLEARS
// logical state:
//
//   - sim.Engine.Reset: retains the event-record free list, the Post ring,
//     the heap backing and the pooled procs (channel + wake timer + bound
//     closures each; the per-body goroutine exits with its body, so an
//     abandoned engine leaks nothing); clears the clock, sequence counter
//     and pending events.
//   - fabric.Fabric.Reset: retains links (and any capacity changes), solver
//     scratch and retired flows (moved to the free list, so Start stops
//     allocating); clears active flows, flow IDs and the progress clock.
//   - fluid.Resource.Reset / disk.Store.Reset: retain water-fill scratch
//     and retired jobs; clear job sets, dirty bytes and fill state, and
//     restore construction-time capacity.
//   - pfs.System.Reset: retains servers, stores, the file table with its
//     cached per-server request-name strings, pooled server requests (with
//     pre-bound completion closures) and pooled wait groups; clears queues
//     and file layout order (File.first is recomputed per Create).
//   - mpi.Platform.Reset: everything is immutable after construction; the
//     call only revalidates invariants.
//   - core.Layer.Reset: retains registrations (and so arrival tie-break
//     order), the policy, the bound arbitration callback and recheck timer,
//     and each AppState's popped info maps (Prepare refills one instead of
//     cloning a fresh map); clears protocol states, accounting and the
//     decision log — with fresh backing, so Log slices already handed out
//     stay valid.
//   - ior.Runner.Reset: retains the armed workload (presets fold their
//     defaults in exactly once, at construction), cached file names and
//     the cached phase Prepare info; clears per-run statistics, keeping
//     their backing.
//
// Construction order is reproduced exactly on reuse (fabric, then server
// links, then app NICs, then registrations), so dense IDs — and with them
// every float accumulation order — match a fresh build: a reused platform
// is bit-identical to a fresh one, pinned by TestReusedPlatformMatchesFresh
// and the ior event-for-event regression. The payoff is pinned too: from a
// worker's second sweep point on, an uncoordinated TrueNetwork point runs
// with ZERO allocations (internal/platform's TestSteadyStateRunAllocFree,
// BenchmarkDeltaPointReused):
//
//	BenchmarkDeltaSweepFabric        0.60 ms/op  7077 allocs → 0.32 ms/op  1002 allocs  (7.1x)
//	BenchmarkDeltaSweepFabricDense   3.59 ms/op 43553 allocs → 1.65 ms/op  1002 allocs  (43x, 2.2x time)
//	BenchmarkDeltaPointReused        (new)                     38 µs/op    0 allocs/op
//
// The remaining ~1000 allocations were per-Sweep setup: each call built
// per-worker platforms, solo calibrations and output slices from scratch.
// delta.Sweeper is the persistent executor that keeps them: it owns the
// solo-calibration pool and a set of persistent worker goroutines (one
// platform pool each) fed per sweep through a channel, reused across
// sweeps, and SweepInto reuses a caller-owned Series' backing. Repeated
// uncoordinated sweeps of one scenario (parameter studies, the macro
// benchmarks) now allocate nothing at all — the last per-sweep cost,
// spawning the worker goroutines, went with the feed channels:
//
//	BenchmarkDeltaSweepFabric        0.32 ms/op  1002 allocs → 0.27 ms/op  0 allocs
//	BenchmarkDeltaSweepFabricDense   1.65 ms/op  1002 allocs → 1.60 ms/op  ~1 alloc
//
// Coordinated sweeps (fcfs, interrupt, interfere, delay — three of the
// four policies behind Figs. 7 and 9) also run the coordination layer per
// point, which used to allocate ~400 objects per point: a policy Decision
// map and formatted reason per arbitration, an unbounded decision-log
// record, boxed trace arguments, a method-value closure and an event
// handle per coordination message, and a fresh Prepare info map per
// phase. Sweep workers now set their platforms' Arbiter up the way the
// daemon does (indexed policy path, logging off — a sweep never reads the
// log), the Layer delivers messages through a bound callback and the
// handle-free sim.Engine.PostAfter, rechecks through one reusable Timer,
// and Prepare info is cached by the runner and refilled in place by the
// AppState. What remains per point is each parked Wait's sim.Resumer and
// the Resume method value its grant message carries:
//
//	BenchmarkDeltaSweepFabricFCFS    3.77 ms/op 19580 allocs → 2.21 ms/op  202 allocs  (49 points, ~4 per point)
//
// TestSweeperSteadyStateAllocs pins both: zero for uncoordinated sweeps,
// at most 8 allocations per point for fcfs, interrupt and interfere on a
// 49-point sweep. TestSweeperReuseBitIdentical pins, under every policy,
// that executor reuse stays bit-identical to fresh sweeps and that the
// workers' indexed, unlogged arbitration gives points bit-identical to
// Scenario.Run, which keeps the map-based, fully logged path (so
// Result.Decisions and every figure output are unchanged).
//
// # Sharded arbitration throughput
//
// The daemon's arbitration is sharded by storage target (one Arbiter and
// one lock per target, no shared coordination state), which scales
// aggregate grant throughput two ways at once: arbitration work is O(apps
// in the shard) per grant, and shards run concurrently across cores.
// BenchmarkServerArbitrateSharded drives one fixed 64-session fleet split
// over K targets; even on a single core the work sharding alone gives
// (Xeon @ 2.10GHz, go1.24, GOMAXPROCS=1):
//
//	targets=1   14.7 µs/op    68k grants/s  0 allocs/op  (the one-arbiter baseline)
//	targets=2    5.3 µs/op   188k grants/s  0 allocs/op  (2.8x)
//	targets=4    2.2 µs/op   445k grants/s  0 allocs/op  (6.5x)
//	targets=8    1.1 µs/op   919k grants/s  0 allocs/op  (13.5x)
//
// On multi-core machines the shards add wall-clock parallelism on top.
// TestStressShardedExactlyOneWriterPerTarget pins the safety side under
// -race: within a target fcfs still admits exactly one
// writer, while a grant on one target never blocks a waiter on another.
//
// # Observability
//
// calciomd -admin ADDR (admin_addr in the config) serves the daemon's
// observability surface on a second listener, built on the dependency-free
// internal/obs package:
//
//	/metrics        Prometheus text format: counters, gauges, histograms
//	/healthz        "serving", "draining" or "degraded" (non-serving: 503)
//	/statusz        the full wire.Stats snapshot as indented JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//
// Enabling the listener also enables collection; without -admin the
// registry is nil and the arbitration hot path runs the exact
// pre-observability instruction stream (fault-free agg and replay output is
// byte-identical either way). Collection follows the same discipline as
// trace recording: every per-shard series is resolved once at shard
// creation and the hot path performs only atomic adds — zero allocations,
// pinned by TestMetricsStayAllocFree and BenchmarkServerArbitrateMetrics.
//
// The hot-path series are per storage target (label target=""): grants,
// arbitrations and revokes (calciomd_grants_total,
// calciomd_arbitrations_total, calciomd_revokes_total), the
// immediate-vs-deferred wait split (calciomd_waits_immediate_total,
// calciomd_waits_deferred_total), the live wait-queue depth
// (calciomd_queue_depth) and two fixed-bucket latency histograms —
// calciomd_wait_seconds (request-to-grant, immediate waits observe 0) and
// calciomd_hold_seconds (grant-to-release). The control goroutine adds the
// fault-tolerance counters (calciomd_self_grants_total,
// calciomd_degraded_seconds_total, calciomd_resumes_total), the connection
// layer counts negotiated codecs (calciomd_connections_total, labels codec
// and mux), tracks the live streams of mux connections
// (calciomd_mux_streams) and their group-commit batch-size distribution
// (calciomd_mux_batch_frames; plain connections' one-stream flushes are
// not observed), and
// counts raw wire traffic beneath the codec buffers
// (calciomd_bytes_in_total, calciomd_bytes_out_total), and scrape time
// adds the stats-merge view: calciomd_sessions, calciomd_cpu_seconds_wasted
// and the per-application calciomd_app_* rows (labels app, target). The
// wait histograms also ride the stats merge into wire.Stats.WaitHist, so
// TCP stats consumers get the same distribution the scrape reports.
// calciom-load -scrape URL diffs the scrape against client-side truth in
// the CI smoke jobs, exactly.
//
// With -log-level (debug logs per-grant events; -log-sample N thins them to
// every Nth) the daemon emits a structured grant-lifecycle stream through
// log/slog: register/resume/disconnect (info), grant (debug; wait seconds,
// queue position, deferred-vs-immediate, convoy cause), revoke (info), and
// grace-expired/drain (warn). Emission is off the hot path — events travel
// by value through a fixed-capacity channel to a formatting goroutine,
// overflow is dropped and counted, never blocked on — the recording
// subsystem's discipline, applied to logging.
//
// # Overload model
//
// The daemon protects itself from more load than it can coordinate, in
// three layers applied in fixed order — admission, then shedding, then
// rate limiting — each answering with a typed retryable error rather than
// degrading silently:
//
//   - Admission control (-max-sessions / max_sessions): registrations of
//     fresh names beyond the bound are rejected with the retryable code
//     "busy"; resumes of existing names are always admitted (a reconnecting
//     holder must never be locked out of its own grants). Alongside it,
//     -handshake-timeout (handshake_timeout_s, shorter than the idle
//     session timeout) drops connections that never register — the
//     slow-loris hole idle eviction cannot see, because eviction only
//     covers registered sessions.
//   - Load shedding: each shard queue has a high-water mark (3/4 of
//     capacity) above which advisory verbs — inform, progress, check,
//     stats — are answered from the reader goroutine with the retryable
//     code "overloaded" instead of being enqueued. State-critical verbs
//     (register, prepare, complete, wait, release, end) are never shed:
//     shedding a release or end would wedge the grant pipeline behind a
//     holder the daemon itself refused to hear from. Brownout exit is
//     hysteretic (low-water mark at 1/4), so the daemon does not flap at
//     the threshold; while any queue is hot, /healthz reports "overloaded".
//   - Per-connection rate limiting (-max-requests-per-sec /
//     max_requests_per_sec): a token bucket per connection (burst = one
//     second's worth), maintained as plain locals on the reader goroutine —
//     zero allocation, zero locks. The first over-limit request gets one
//     retryable "overloaded" reply; a second violation with no compliant
//     request in between disconnects the connection.
//
// The client contract: "busy" and "overloaded" are retryable-in-place
// (wire.Retryable) — a reconnecting client backs off exponentially and
// retries on the same connection, unlike "draining" which cycles the
// connection. Clients that are too slow to drain their response buffer are
// disconnected (calciomd_slow_disconnects_total) rather than allowed to
// stall arbitration, and with a grace window their grants survive for a
// resume. Every layer is observable: calciomd_busy_rejects_total,
// calciomd_sheds_total (per target), calciomd_stats_sheds_total,
// calciomd_rate_limited_total, calciomd_handshake_timeouts_total, and
// busy-reject/shed/rate-limited events in the -log-level stream.
//
// The decoder boundary below all of this is fuzzed: FuzzReadFrame and
// FuzzDecodeRequest (internal/wire), FuzzReadFrameBinary,
// FuzzDecodeRequestBinary and FuzzDecodeMuxFrame (internal/wirebin, the
// middle one checking the canonical re-encode round trip, the last
// covering the stream-id prefix in both directions) and FuzzReader (internal/trace, strict
// and lenient modes) run in CI, seeded from the golden-bytes corpora, so
// arbitrary bytes on a socket or in a trace file fail with an error — never
// a panic or an unbounded allocation. calciom-load provides the probes:
// -flood registers a whole fleet at once against the session bound and
// asserts grant conservation (grants == admitted), and -chaos-garbage makes
// the chaos proxy inject seeded bit flips and junk frames into live
// connections.
package repro
