(** Writer-side log shipping: stream the WAL to follower replicas.

    One domain owns a TCP listener plus every follower connection.  A
    {!Cactis.Persist.listen}er queues the ordered log tail — each record
    with its post-append cursor, once it is in the WAL, and a mark for
    each checkpoint, in log order; the publisher domain drains the
    queue — {e group commit on the wire}: everything drained in one
    wake leaves as one [Batch] frame — into an in-memory backlog it
    serves resumes from, and pushes new items to every live follower.
    It ships the bytes the WAL stores; it never encodes a delta.

    Bootstrap is snapshot + log catch-up: a follower whose cursor the
    backlog no longer covers is sent the on-disk checkpoint file
    (atomic-replaced by {!Cactis.Persist.checkpoint}, so reading it
    races nothing) in chunks, then streamed the records past it.  A
    follower {e ahead} of the writer — a stale writer restarted from
    an old checkpoint — is refused with a typed
    [follower-ahead] error rather than replayed backwards.

    The backlog retains the current and previous checkpoint
    generations (a reconnecting follower can resume across one
    checkpoint); older items are pruned once every connected follower
    has passed them.  A follower further behind than [max_backlog]
    items is evicted and re-bootstraps on reconnect.

    Counters ([repl.ship_*], [repl.snapshots_served], [repl.refusals],
    ...) and the follower-lag histogram land in the database's own
    observability context, so they flow through the existing
    Stats/OpenMetrics path unchanged. *)

type config

(** [config ()] — ephemeral loopback port, 1 s heartbeats, 256k-item
    backlog cap, 5 s per-follower send deadline (a consumer stalled
    longer is dropped; it reconnects and resyncs). *)
val config :
  ?port:int ->
  ?heartbeat_s:float ->
  ?max_backlog:int ->
  ?send_timeout_s:float ->
  ?backlog:int ->
  unit ->
  config

type t

(** [start ?config persist] — seed the backlog from [persist]'s log,
    listen to its tail and begin accepting followers.  Call it from the
    domain that commits to [persist]'s database, or before that domain
    starts. *)
val start : ?config:config -> Cactis.Persist.t -> t

(** The bound TCP port (useful with [port = 0]). *)
val port : t -> int

(** Currently connected followers. *)
val followers : t -> int

(** Sequence number of the last streamed item ([-1] before any). *)
val head_seq : t -> int

(** Stop listening to the log tail, stop accepting, drop every
    follower, join the domain.  Idempotent. *)
val stop : t -> unit
