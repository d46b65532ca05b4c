(* Follower-side apply engine.  See the interface for the chain rules. *)

module Db = Cactis.Db
module Codec = Cactis.Codec
module Engine = Cactis.Engine
module Integrity = Cactis.Integrity
module P = Repl_proto

type t = {
  db : Db.t;
  mutable cursor : P.cursor;
  mutable seq : int;
  mutable records_applied : int;
}

let create ~cursor db = { db; cursor; seq = -1; records_applied = 0 }

let replay t record =
  (try Db.replay_record t.db record
   with Codec.Error { offset; message } ->
     raise (P.Corrupt { context = "record"; message = Printf.sprintf "at byte %d: %s" offset message }));
  Engine.propagate (Db.engine t.db)

let db t = t.db
let cursor t = t.cursor
let seq t = t.seq
let records_applied t = t.records_applied

type outcome = Applied | Skipped

let apply_entry t (e : P.entry) =
  if P.cursor_compare e.P.e_cursor t.cursor <= 0 then begin
    (* Already folded into our state: a resumed stream may repeat the
       tail, and a bootstrap snapshot may cover records also present in
       the backlog.  Skipping is the documented duplicate tolerance. *)
    t.seq <- max t.seq e.P.e_seq;
    Skipped
  end
  else if P.cursor_compare e.P.e_prev t.cursor <> 0 then
    raise (Repl_error.Gap { expected = t.cursor; got = e.P.e_prev; seq = e.P.e_seq })
  else begin
    replay t e.P.e_record;
    t.cursor <- e.P.e_cursor;
    t.seq <- e.P.e_seq;
    t.records_applied <- t.records_applied + 1;
    Applied
  end

let apply_mark t ~seq ~prev ~generation =
  if generation <= t.cursor.P.gen then begin
    t.seq <- max t.seq seq;
    Skipped
  end
  else if P.cursor_compare prev t.cursor <> 0 then
    raise (Repl_error.Gap { expected = t.cursor; got = prev; seq })
  else begin
    t.cursor <- { P.gen = generation; records = 0 };
    t.seq <- seq;
    Applied
  end

let drift_check t =
  match Integrity.check t.db with
  | [] -> ()
  | violations -> raise (Repl_error.Diverged { violations })
