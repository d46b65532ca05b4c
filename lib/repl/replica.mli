(** Follower-side apply engine — pure state machine, no sockets.

    Validates the cursor chain and replays shipped records into a
    read-only replica database.  The socket loop ({!Follower}) drives
    it with decoded messages; the property tests drive it directly
    with captured histories, which is what makes "a follower replaying
    any prefix of the shipped log equals the writer at that version"
    checkable without a network.

    Apply rules, for an item tagged [prev -> after] against a replica
    at cursor [c]:
    - [after <= c]: skip (duplicate or pre-bootstrap record — the
      stream may legally repeat after a resume);
    - [prev = c]: apply, advance to [after];
    - anything else: typed {!Repl_error.Gap} — the stream was
      reordered or holed; never apply out of order.

    Schema deltas replay through the registered rule compiler — link
    the DDL front end and call
    [Cactis_ddl.Elaborate.install_rule_compiler ()] first, exactly as
    for {!Cactis.Persist.recover}. *)

type t

(** [create ~cursor db] — a replica positioned at [cursor].  Records
    apply through {!Cactis.Db.replay_record} followed by one
    propagation, so [db]'s subscribers see every applied record: a
    server serving [db] (the read-only [serve --follow] mode) forwards
    it to its reader domains from inside that call. *)
val create : cursor:Repl_proto.cursor -> Cactis.Db.t -> t

val db : t -> Cactis.Db.t
val cursor : t -> Repl_proto.cursor

(** Highest stream sequence number applied or skipped ([-1] initially). *)
val seq : t -> int

val records_applied : t -> int

type outcome = Applied | Skipped

(** @raise Repl_error.Gap on a chain violation.
    @raise Repl_error.Corrupt if the record bytes do not decode. *)
val apply_entry : t -> Repl_proto.entry -> outcome

(** Checkpoint mark: the replica's current state equals checkpoint
    [generation]; advance the cursor without touching data.
    @raise Repl_error.Gap when [prev] is not the replica's cursor. *)
val apply_mark : t -> seq:int -> prev:Repl_proto.cursor -> generation:int -> outcome

(** Periodic drift detection: run {!Cactis.Integrity.check} over the
    replica.
    @raise Repl_error.Diverged listing the violations, if any. *)
val drift_check : t -> unit
