(* plan-edit: the paper's motivating edit loop (§2.2, Figure 1),
   embedded and durable.  A layered milestone plan is built through the
   DDL.  One op is a tool's edit session of [session] edits; an edit
   slips one milestone in its own transaction (every commit is fsynced
   before it returns) and reads one derived expected-completion date
   unwatched (so the read pays demand-driven evaluation); every 50th op
   also pulls the late list with Query.select.  The ship
   milestone's exp_compl/late are watched, so each commit evaluates the
   ripple up to it.  The engine's mark/eval, Codec, Wal/Persist and
   Query do the work; the pager and the network do none. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Persist = Cactis.Persist
module Counters = Cactis_util.Counters
module Histogram = Cactis_obs.Histogram
module Rng = Cactis_util.Rng
module Vtime = Cactis_util.Vtime
module Query = Cactis_ddl.Query

(* Figure 1 in the DDL (the form the milestone application uses). *)
let schema_src =
  {|
  object class milestone is
    relationships
      depends_on  : milestone multi socket inverse consists_of;
      consists_of : milestone multi plug   inverse depends_on;
    attributes
      name        : string;
      sched_compl : time;
      local_work  : float := 1.0;
    rules
      exp_compl = max(depends_on.exp_compl default time(0)) + local_work;
      late = later_than(exp_compl, sched_compl);
    constraints
      sane_work = local_work >= 0.0 message "negative work estimate";
  end object;
|}

let schema () = Cactis_ddl.Elaborate.load_string schema_src

type plan = {
  db : Db.t;
  ids : int array;  (* ids.(0) is the ship milestone *)
  work : float array;  (* the benchmark's own copy of every local_work *)
}

(* The E13 generator: [layers] layers of [width] milestones; the ship
   milestone depends on the whole first layer, each milestone on 1–2 of
   the layer below.  One transaction per layer. *)
let build ?strategy ~seed ~layers ~width () =
  let db = Db.create ?strategy (schema ()) in
  let rng = Rng.create seed in
  let ids = ref [] and work = ref [] in
  let add name ~scheduled ~local_work =
    let id = Db.create_instance db "milestone" in
    Db.set db id "name" (Value.Str name);
    Db.set db id "sched_compl" (Value.Time (Vtime.of_days scheduled));
    Db.set db id "local_work" (Value.Float local_work);
    ids := id :: !ids;
    work := local_work :: !work;
    id
  in
  let ship =
    Db.with_txn db (fun () ->
        add "ship" ~scheduled:(float_of_int (10 * layers)) ~local_work:1.0)
  in
  let prev = ref [] in
  for l = 1 to layers do
    Db.with_txn db (fun () ->
        let layer =
          List.init width (fun i ->
              add (Printf.sprintf "t%d_%d" l i)
                ~scheduled:(float_of_int (10 * (layers - l)))
                ~local_work:(1.0 +. Rng.float rng 3.0))
        in
        (match !prev with
        | [] -> List.iter (fun id -> Db.link db ~from_id:ship ~rel:"depends_on" ~to_id:id) layer
        | above ->
          List.iter
            (fun upper ->
              for _ = 1 to 1 + Rng.int rng 2 do
                let lower = Rng.pick_list rng layer in
                if not (List.mem lower (Db.related db upper "depends_on")) then
                  Db.link db ~from_id:upper ~rel:"depends_on" ~to_id:lower
              done)
            above);
        prev := layer)
  done;
  { db; ids = Array.of_list (List.rev !ids); work = Array.of_list (List.rev !work) }

let expected db id = Db.get ~watch:false db id "exp_compl"
let late db id = Value.as_bool (Db.get ~watch:false db id "late")

(* Sum and count of a histogram in the db's registry. *)
let hist db name =
  match List.assoc_opt name (Histogram.merged_cells (Db.obs db).Cactis_obs.Ctx.hists) with
  | Some h -> (Histogram.sum h *. 1e6, Histogram.count h)
  | None -> (0.0, 0)

type pass = {
  ops : int;
  op : Common.windowed;
  commit : Stats.t;
  read : Stats.t;
  select : Stats.t;
  failed : int;
}

(* Edits per op.  A single slip's cost is bimodal (most ripples are cut
   off after a step or two, the rest climb to the ship milestone), so
   the median of single slips sits between the modes and jumps with
   the seed; a session of four is unimodal enough to gate on. *)
let session = 4

(* The plan is E13's (generator seed 17) whatever the run's seed, which
   drives the edit stream: plans drawn from different seeds differ by
   ~18% in mean engine work per edit, which would swamp the timings. *)
let plan_seed = 17

let setup_every_ns = 1_500_000_000L

let run (cfg : Common.config) =
  let layers, width, window = if cfg.quick then (10, 8, 50) else (25, 20, 500) in
  let (plan, p), setup =
    Common.repeated_setup ~reps:(if cfg.quick then 2 else 9) ~before:1
      ~discard:(fun (_, p) -> Persist.close p)
      (fun rep ->
        let plan = build ~seed:plan_seed ~layers ~width () in
        let dir = Common.fresh_dir (Filename.concat cfg.work (Printf.sprintf "plan%d" rep)) in
        let p = Persist.attach ~dir plan.db in
        let ship = plan.ids.(0) in
        Db.watch plan.db ship "exp_compl";
        Db.watch plan.db ship "late";
        ignore (expected plan.db ship);
        (plan, p))
  in
  let db = plan.db and n = Array.length plan.ids in
  let rng = Rng.create ((cfg.seed * 1_000_003) + 1) in
  let tr = Spans.create () in
  let counters = Db.counters db in
  let window_marks = ref [] and peak_rss = ref 0.0 in
  let mark_window () =
    if !window_marks = [] then Common.reset_peak_rss "self"
    else peak_rss := Common.peak_rss_mb "self";
    window_marks :=
      (Counters.get counters "rule_evals", Counters.get counters "mark_visits", Persist.wal_bytes p)
      :: !window_marks
  in
  let commits = ref 0 in
  let pass ~count_window =
    let op = Common.windowed () and commit = Stats.create () in
    let read = Stats.create () and select = Stats.create () in
    let failed = ref 0 and next_setup = ref 0L in
    let min_ops, seconds = Common.pass_length cfg ~count_window ~window in
    let ops =
      Common.closed_loop ~min_ops ~seconds (fun i ->
          if count_window && (i = 0 || i = window) then mark_window ();
          (* The remaining set-up repetitions are spread over the pass,
             after the count window (they would raise its peak RSS). *)
          if count_window && i > window && Int64.compare (Common.now_ns ()) !next_setup >= 0
          then begin
            Common.pause op (fun () -> Common.setup_step setup);
            next_setup := Int64.add (Common.now_ns ()) setup_every_ns
          end;
          tr.Spans.op <- i;
          let edits =
            List.init session (fun _ ->
                let k = Rng.int rng n in
                let w = plan.work.(k) +. Rng.float rng 2.0 in
                (k, w, Rng.int rng n))
          in
          let edit (k, w, r) =
            Common.timed commit (fun () ->
                Spans.span tr "db.begin_txn" (fun () -> Db.begin_txn db);
                Spans.span tr "db.set" (fun () ->
                    Db.set db plan.ids.(k) "local_work" (Value.Float w));
                Spans.span tr "db.commit" (fun () -> Db.commit db));
            plan.work.(k) <- w;
            incr commits;
            Common.timed read (fun () ->
                ignore (Spans.span tr "db.get" (fun () -> expected db plan.ids.(r))))
          in
          try
            Common.timed_w op (fun () ->
                Spans.span tr "op.session" (fun () ->
                    List.iter edit edits;
                    if i mod 50 = 49 then
                      Common.timed select (fun () ->
                          ignore
                            (Spans.span tr "query.select" (fun () ->
                                 Query.select db ~type_name:"milestone" ~where:"late")))))
          with e ->
            incr failed;
            prerr_endline ("plan-edit op failed: " ^ Printexc.to_string e);
            if Db.in_txn db then Db.abort db)
    in
    { ops; op; commit; read; select; failed = !failed }
  in
  let gc0 = Common.gc_mark () in
  let hists0 = (hist db "wal_append", hist db "wal_fsync") in
  let base = pass ~count_window:true in
  let gc = Common.gc_per_op gc0 base.ops in
  let (a1, an1), (f1, fn1) = (hist db "wal_append", hist db "wal_fsync") in
  let (a0, an0), (f0, fn0) = hists0 in
  (* The wal_append histogram spans the whole append, fsync included. *)
  let wal_append_incl_us = Common.ratio (a1 -. a0) (float_of_int (an1 - an0)) in
  let wal_fsync_us = Common.ratio (f1 -. f0) (float_of_int (fn1 - fn0)) in
  let wal_append_us = wal_append_incl_us -. wal_fsync_us in
  let traced =
    if cfg.trace then begin
      tr.Spans.on <- true;
      let t = pass ~count_window:false in
      tr.Spans.on <- false;
      Spans.write_chrome tr
        (Filename.concat (Filename.dirname cfg.work)
           "trace-plan-edit.json");
      Some t
    end
    else None
  in
  (* ---- correctness ---- *)
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* 1. The live plan equals a Recompute_all rebuild from the same seed
        carrying the final work estimates. *)
  let reference = build ~strategy:Cactis.Engine.Recompute_all ~seed:plan_seed ~layers ~width () in
  Db.with_txn reference.db (fun () ->
      Array.iteri
        (fun k id -> Db.set reference.db id "local_work" (Value.Float plan.work.(k)))
        reference.ids);
  Array.iteri
    (fun k id ->
      if not (Value.equal (expected db id) (expected reference.db reference.ids.(k))) then
        problem "milestone %d: exp_compl differs from the recompute-all rebuild" k;
      if late db id <> late reference.db reference.ids.(k) then
        problem "milestone %d: late differs from the recompute-all rebuild" k)
    plan.ids;
  let late_ref =
    List.filter_map
      (fun (k, id) -> if late reference.db id then Some plan.ids.(k) else None)
      (List.mapi (fun k id -> (k, id)) (Array.to_list reference.ids))
  in
  let late_live = Query.select db ~type_name:"milestone" ~where:"late" in
  if List.sort compare late_live <> List.sort compare late_ref then
    problem "Query.select late differs from the rebuild's late set";
  (* 2. Every acknowledged commit is durable: recovery of the run's
        directory replays them all and matches the live state. *)
  let dir = Persist.dir p in
  Persist.close p;
  let recovered = Persist.recover ~dir (schema ()) in
  if Persist.replayed recovered <> !commits then
    problem "recovery replayed %d deltas, %d commits were acknowledged" (Persist.replayed recovered)
      !commits;
  let rdb = Persist.db recovered in
  Array.iteri
    (fun k id ->
      if not (Value.equal (Db.get ~watch:false rdb id "local_work") (Value.Float plan.work.(k)))
      then problem "milestone %d: recovered local_work differs" k)
    plan.ids;
  if not (Value.equal (expected rdb plan.ids.(0)) (expected db plan.ids.(0))) then
    problem "recovered ship date differs from the live one";
  Persist.close recovered;
  let setup_s = Common.setup_finish setup in
  (* ---- metrics ---- *)
  let evals, marks, bytes =
    match !window_marks with
    | [ (e1, m1, b1); (e0, m0, b0) ] -> (e1 - e0, m1 - m0, b1 - b0)
    | _ -> (0, 0, 0)
  in
  let floors = Floors.measure ~dir:cfg.work db in
  let floor = Common.value floors in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", !peak_rss, "MiB");
    ]
    @ fst (Common.window_metrics base.op)
  in
  let layers =
    if not cfg.trace then []
    else begin
      let t = Option.get traced in
      let commit_us = Spans.p50 tr "db.commit" in
      let log_bytes = Common.per bytes (window * session) in
      [
        ("commit_p50_us", Stats.quantile base.commit 0.5, "us");
        ("commit_p99_us", Stats.quantile base.commit 0.99, "us");
        ("read_p50_us", Stats.quantile base.read 0.5, "us");
        ("select_p50_us", Stats.quantile base.select 0.5, "us");
        ("log_bytes_per_commit", log_bytes, "B");
        ("db.set_us", Spans.p50 tr "db.set", "us");
        ("db.commit_us", commit_us, "us");
        ("db.get_us", Spans.p50 tr "db.get", "us");
        ("wal.append_us", wal_append_us, "us");
        ("wal.fsync_us", wal_fsync_us, "us");
        ( "engine.eval_us",
          Float.max 0.0 (Spans.mean tr "db.commit" -. wal_append_incl_us),
          "us" );
        ("engine.mark_visits_per_op", Common.per marks window, "count");
        ("engine.rule_evals_per_op", Common.per evals window, "count");
        ("query.select_us", Spans.p50 tr "query.select", "us");
        ("self.db_us_per_op", Spans.self_per_op tr "db" t.ops, "us");
        ("self.query_us_per_op", Spans.self_per_op tr "query" t.ops, "us");
        ("self.bench_us_per_op", Spans.self_per_op tr "op" t.ops, "us");
        ("trace.spans_per_op", Common.per tr.Spans.n_spans t.ops, "count");
        ("x_floor.wal_fsync", Common.ratio wal_fsync_us (floor "floor.fsync_us"), "x");
        ( "x_floor.wal_append_codec",
          Common.ratio wal_append_us (Common.ratio log_bytes (floor "floor.codec_encode_mb_s")),
          "x" );
      ]
      @ snd (Common.window_metrics base.op)
      @ Common.trace_overhead ~base:base.op ~traced:t.op
      @ gc @ floors
    end
  in
  let failed = base.failed + match traced with Some t -> t.failed | None -> 0 in
  {
    Common.attempted = base.ops + (match traced with Some t -> t.ops | None -> 0);
    failed;
    problems = List.rev !problems;
    e2e;
    layers;
    counts =
      [ ("engine.rule_evals", evals, window); ("engine.mark_visits", marks, window);
        ("wal.bytes", bytes, window) ];
  }
