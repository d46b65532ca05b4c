(** Follower-side streaming client: connect to a {!Publisher}, obtain a
    replica database (snapshot bootstrap or log resume), and keep it
    converged with the writer.

    Lifecycle: {!create} is passive; {!sync} blocks through the
    handshake until the replica database exists (loaded from a shipped
    snapshot, or created fresh when the writer resumes the log from the
    follower's cursor) and has applied the head the writer announced at
    handshake, and returns it; {!run} then streams batches into
    it until {!stop}, a fatal error, or — with [~until_synced:true] —
    the moment the replica has applied everything the writer has
    shipped.

    Error handling follows {!Repl_error.recoverable}: transport drops,
    heartbeat silence, corrupt frames and stream gaps tear down the
    connection and reconnect with exponential backoff (resuming from
    the replica's own cursor, so nothing is applied twice); a {!Refuse}
    from the writer or an {!Cactis.Integrity} divergence stops the
    follower with the error recorded in {!status}.

    Single-threaded: {!sync}/{!run} block their caller ({!stop} is safe
    from another domain).  Metrics ([repl.batches], [repl.bootstraps],
    [repl.reconnects], lag histograms...) are recorded against the
    replica database's own counters, so a server wrapped around the
    replica exposes them over [/metrics] like any other [db.*] series.

    Serving the replica ([cactis serve --follow]): start a
    {!Cactis_net.Server} over the database {!sync} returned, then {!run}
    on a domain of its own.  That domain stays the only one touching
    the database: each record applies through {!Replica}'s ordinary
    path, and the server's record subscription forwards it to the
    reader domains.  While anything subscribes to the database, a
    writer demanding a re-bootstrap is a fatal typed refusal — a served
    database cannot be swapped for a freshly loaded one. *)

type config

(** [config ()] — 5 s heartbeat timeout (reads idle longer reconnect),
    backoff 0.1 s doubling to 5 s, {!Cactis.Integrity} drift check every
    8 batches ([check_every = 0] disables), unlimited reconnect attempts
    ([max_attempts = 0]). *)
val config :
  ?heartbeat_timeout_s:float ->
  ?backoff_s:float ->
  ?max_backoff_s:float ->
  ?check_every:int ->
  ?max_attempts:int ->
  unit ->
  config

type t

type status =
  | Idle  (** created, never connected *)
  | Syncing  (** handshake / bootstrap in progress *)
  | Streaming  (** applying the live stream *)
  | Stopped  (** {!stop} was called *)
  | Failed of string  (** fatal error; see {!Repl_error.to_string} *)

(** [create ~make_schema ~host ~port ()] — [make_schema] builds the
    baseline schema a shipped snapshot's schema deltas replay onto
    (link the DDL front end and install the rule compiler first, as for
    {!Cactis.Persist.recover}). *)
val create :
  ?config:config -> make_schema:(unit -> Cactis.Schema.t) -> host:string -> port:int -> unit -> t

(** Blocking initial sync; returns the replica database once it has
    applied every record the writer had shipped when the handshake
    completed.  Idempotent — returns the existing database if already
    synced.
    @raise Repl_error.Refused when the writer rejects the session
    @raise Repl_error.Transport when the writer cannot be reached *)
val sync : t -> Cactis.Db.t

(** Stream until {!stop} or a fatal error ([~until_synced:true]: return
    as soon as the replica has caught up with the writer's shipped
    head).  Calls {!sync} first if needed.  Recoverable connection
    errors reconnect with backoff; when [max_attempts] is exhausted the
    follower fails with the last error. *)
val run : ?until_synced:bool -> t -> unit

(** Interrupt {!sync}/{!run} from another domain.  Idempotent. *)
val stop : t -> unit

val status : t -> status
val db : t -> Cactis.Db.t option
val cursor : t -> Repl_proto.cursor

(** Highest stream sequence applied, and the writer's announced head
    ([-1] before any traffic). *)
val applied_seq : t -> int

val head_seq : t -> int

(** Replica has applied everything the writer has announced. *)
val synced : t -> bool
