(** Durable persistence: binary checkpoints plus a write-ahead delta
    log, making commit-time durability cost O(ops in the transaction)
    instead of O(database).

    The paper keeps per-transaction deltas precisely because "the
    information needed to remember a delta is proportional in size to
    the initial changes made" (§3); this module extends that argument to
    the disk.  A persistence directory holds two files:

    - [snapshot.bin] — the last binary checkpoint ({!Snapshot.save_binary}
      behind a small generation-stamped header), replaced atomically
      (write-temp, fsync, rename, directory fsync);
    - [wal.log] — CRC-framed {!Codec.encode_delta} records
      ({!Cactis_storage.Wal}), one per delta the database state moved
      across since the checkpoint (commits, undos, redos, checkouts).

    Snapshot and log carry a matching {e checkpoint generation} number:
    each checkpoint writes the snapshot under generation [g+1] first,
    then resets the log stamped [g+1].  A crash between those two steps
    leaves the new snapshot over a log still stamped [g]; {!recover}
    detects the mismatch and skips the stale records (they are already
    folded into the snapshot) instead of double-applying them.

    {!recover} loads the checkpoint, replays the intact log prefix of
    the matching generation (discarding any torn tail, so a crash
    mid-append rolls back to the last durable transaction) and
    re-attaches for further commits.

    The log is written by a {!Db.subscribe} subscriber: the database
    encodes each delta once and the same record bytes go to the WAL and
    to every later subscriber (the server's reader broadcast).  Its own
    {!listen}ers receive the {e ordered log tail}: each appended record
    with its cursor, and a mark for each checkpoint, in log order — what
    a log-shipping publisher streams. *)

type t

(** [attach ?sync_every ~dir db] makes a live database durable: it
    subscribes to [db]'s records and appends each to [dir]'s write-ahead
    log.  [sync_every] batches fsyncs (group commit): 1 (default) syncs
    every commit, [n] every [n]-th, 0 only on {!sync}/{!close}.
    Checkpoints happen only when {!checkpoint} is called, never inside
    a commit.  If [db] holds instances, or [dir] already
    holds any persistent state (a checkpoint, log records, a torn tail)
    — state that was {e not} loaded into [db] — an initial checkpoint is
    written so the log has exactly this database as its baseline; stale
    directory contents are superseded.  Use {!recover} to continue from
    a directory's contents instead of overriding them. *)
val attach : ?sync_every:int -> dir:string -> Db.t -> t

(** [recover ~dir schema] rebuilds the database from the last checkpoint
    plus the intact write-ahead-log prefix, truncates any torn tail, and
    re-attaches.  A log stamped with an older generation than the
    checkpoint (crash inside {!checkpoint}) is discarded rather than
    replayed; a log stamped {e newer} than the checkpoint means the
    checkpoint file was deleted or replaced and raises rather than
    replaying deltas against a state they do not belong to.  Records
    replay through {!Db.replay_record}, with one propagation after the
    whole tail.  Engine/pager options mirror {!Db.create}.
    @raise Errors.Type_error on generation mismatch or a corrupt
    checkpoint header. *)
val recover :
  ?strategy:Engine.strategy ->
  ?sched:Sched.strategy ->
  ?block_capacity:int ->
  ?buffer_capacity:int ->
  ?sync_every:int ->
  dir:string ->
  Schema.t ->
  t

val db : t -> Db.t
val dir : t -> string

(** Deltas replayed from the log by the last {!recover}. *)
val replayed : t -> int

(** Did the last {!recover} discard a torn log tail? *)
val recovered_torn : t -> bool

(** Checkpoint generation currently on disk (0 before any checkpoint). *)
val generation : t -> int

(** Records currently in the log — position [wal_records t] of
    generation [generation t] is the replication cursor: the state a
    log-shipping follower that has applied this many records since the
    last checkpoint holds.  Zero right after {!attach} or
    {!checkpoint}; {!recover} starts it at the number of records
    replayed. *)
val wal_records : t -> int

(** Paths of the two on-disk artifacts ([snapshot.bin], [wal.log])
    inside the persistence directory — exposed for the replication
    publisher, which serves the checkpoint file to bootstrapping
    followers and seeds its record backlog from the log. *)
val snapshot_path : t -> string

val wal_path : t -> string

(** The checkpoint currently on disk, decoded past its header:
    [(generation, schema_version, snapshot_payload)] where the payload
    is {!Snapshot.save_binary} bytes.  [None] before any checkpoint.
    Safe to call concurrently with commits — the file is only ever
    replaced atomically.
    @raise Errors.Type_error on a corrupt checkpoint header. *)
val read_checkpoint : t -> (int * int * string) option

(** One item of the ordered log tail.  [Record] is a record just
    appended: the log now holds [position] records of checkpoint
    [generation] (the replication cursor after it).  [Mark g] is a
    checkpoint: the state is generation [g]'s snapshot and the log
    restarts empty, at cursor [(g, 0)]. *)
type tail =
  | Record of { generation : int; position : int; record : string }
  | Mark of int

(** [listen t f] — call [f] with every later tail item, in log order,
    synchronously on the domain that commits or checkpoints (after the
    append, before the commit returns).  Returns the function that
    removes [f]. *)
val listen : t -> (tail -> unit) -> unit -> unit

(** [checkpoint t] writes a fresh binary snapshot (atomic replace,
    stamped with the next generation) and then resets the log under the
    same generation — recovery afterwards replays nothing, and a crash
    between the two steps is recognized by the generation mismatch and
    recovers to the snapshot.
    @raise Errors.Type_error inside a transaction. *)
val checkpoint : t -> unit

(** WAL frame bytes appended since the last checkpoint — the O(delta)
    commit cost the persistence experiments measure. *)
val wal_bytes : t -> int

(** Force an fsync of everything appended so far (group commit flush). *)
val sync : t -> unit

(** Unsubscribe from the database's records (other subscribers stay)
    and close the log (final fsync included). *)
val close : t -> unit
