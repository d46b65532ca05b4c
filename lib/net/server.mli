(** Multi-client Cactis server on OCaml 5 domains.

    The paper closes with the distributed direction: several users'
    tools working against one database, "various sub-traversals …
    actually running at the same time".  This server realises the
    shared-database half on one machine:

    - {b one writer domain} owns the master {!Cactis.Db} and applies
      every [Commit] through it (and so through every record subscriber
      — the WAL, when {!Cactis.Persist} is attached);
    - {b N reader domains} each hold an immutable-between-versions
      {e replica}, built from a binary snapshot of the master against a
      fresh schema, and serve [Read]/[Traverse] without ever touching
      the writer's structures.  Readers never block the writer and the
      writer never blocks readers;
    - {b snapshot handoff}: the server subscribes to the master's
      records ({!Cactis.Db.subscribe}) and broadcasts each — the same
      bytes the WAL stores, encoded once — to every reader's mailbox,
      tagged with a monotonically increasing {e version}.
      Readers apply deltas in order; a request's [min_version] names the
      snapshot it is content with (read-your-writes when it names the
      client's own last commit);
    - {b a front-end event loop} (its own domain) accepts TCP
      connections on loopback, decodes frames incrementally, answers
      [Ping]/[Stats] inline, and routes everything else: commits to the
      writer, reads to the reader whose {!Cactis_dist.Partition}
      id-range contains the target instance (affinity routing — every
      replica is complete, the range only decides who serves whom).

    Observability is always on: per-verb request counters and latency
    histograms (domain-safe registries, merged on read), sampled
    tracing — one commit in [trace_sample] records a span carrying the
    client's span id from the request envelope, so client and server
    traces stitch — and the {!Cactis_obs.Flight} recorder (net accepts,
    verbs, typed errors; every server domain runs under a wrapper that
    dumps the recorder on an uncaught exception).

    Production forensics are opt-in per config knob: a plain-HTTP
    [GET /metrics] OpenMetrics endpoint ([metrics_port]), a slow-op
    JSONL log ([slow_ms] deadline, one structured line per blown
    deadline), and a latency/error {!Cactis_obs.Watchdog} sampled from
    the front end's idle heartbeat ([watchdog]), which dumps the flight
    recorder on a p99 regression or error burst. *)

type config

(** [config ()] — loopback TCP on an ephemeral port ([port = 0]), one
    reader, every 64th commit traced; no metrics endpoint, slow-op
    deadline 100 ms logged to stderr, no watchdog, no flight-dump
    directory.

    [metrics_port]: also listen on loopback at this port ([0] =
    ephemeral; see {!metrics_port}) and answer [GET /metrics] with the
    OpenMetrics exposition.  [slow_ms <= 0] disables the slow-op log;
    [slowlog_sink] redirects its JSON lines (default: stderr, prefixed
    [cactis-slowop ]).  [watchdog] enables the latency/error watchdog.
    [flight_dir] is where crash/watchdog flight dumps are written;
    without it dumps are skipped (stderr still reports the crash).
    [read_only] makes this a replica front end: client [Commit]s are
    refused with a typed protocol error ("read-only replica") and no
    writer domain runs; state changes arrive as records replayed into
    the master ({!Cactis.Db.replay_record}) by whoever owns it — a
    {!Cactis_repl.Follower} — and reach the readers through the same
    subscription as commits. *)
val config :
  ?port:int ->
  ?readers:int ->
  ?trace_sample:int ->
  ?backlog:int ->
  ?metrics_port:int ->
  ?slow_ms:float ->
  ?slowlog_sink:(string -> unit) ->
  ?watchdog:Cactis_obs.Watchdog.config ->
  ?flight_dir:string ->
  ?read_only:bool ->
  unit ->
  config

type t

(** [start ?config ~make_schema db] snapshots [db], spawns the domains
    and begins accepting connections.  [make_schema] must build a fresh
    schema equivalent to [db]'s (schemas are mutable and cannot be
    shared across domains; each replica loads the snapshot against its
    own).  After [start] the caller must not touch [db] again — it
    belongs to the writer domain (in [read_only] mode, to the one
    domain that replays records into it).  Subscribers attached before
    [start] (the WAL) see each record before the reader broadcast. *)
val start : ?config:config -> make_schema:(unit -> Cactis.Schema.t) -> Cactis.Db.t -> t

(** The bound TCP port (useful with [port = 0]). *)
val port : t -> int

(** The bound metrics port, when a metrics endpoint was configured. *)
val metrics_port : t -> int option

val readers : t -> int

(** Highest committed (and broadcast) version. *)
val published_version : t -> int

(** Server-side request/connection counters (names under [server.]). *)
val counters : t -> Cactis_util.Counters.t

(** Per-verb service latencies (names under [serve.]). *)
val latencies : t -> Cactis_obs.Histogram.t

(** The sampled-span ring (always enabled; ~1-in-[trace_sample]
    commits). *)
val trace : t -> Cactis_obs.Trace.t

(** The slow-op log, when enabled ([slow_ms > 0]). *)
val slowlog : t -> Cactis_obs.Slowlog.t option

(** The watchdog, when configured. *)
val watchdog : t -> Cactis_obs.Watchdog.t option

(** [dump_flight t ~reason] — write a flight dump to the configured
    [flight_dir] now ([None] when no directory was configured or the
    write failed).  The CLI wires SIGQUIT/SIGUSR2 to this. *)
val dump_flight : t -> reason:string -> string option

(** Stop accepting, drain the domains, drop the record subscription,
    close every socket.  Stop whatever replays records into a
    [read_only] server's database first.  Idempotent. *)
val stop : t -> unit
