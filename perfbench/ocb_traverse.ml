(* ocb-traverse: read-only traversals over an object base far larger
   than the buffer pool, on a real block file (after the OCB clustering
   benchmark of Darmont & Gruenwald).  Set-up populates the base
   (fanout 3, module locality 0.9), trains it with traversals and
   re-clusters it greedily (§2.3); the measured loop runs Zipf-rooted
   depth-4 hierarchy traversals (Db.get payload + Db.related refs).
   Store, Pager, Buffer_pool, Disk and Cluster do the work; propagation,
   the WAL and the network do none. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Rng = Cactis_util.Rng
module Pager = Cactis_storage.Pager
module Disk = Cactis_storage.Disk
module Buffer_pool = Cactis_storage.Buffer_pool

(* All-intrinsic objects: an OCB graph is an arbitrary digraph, and a
   derived attribute over a cyclic reference graph would be a cycle. *)
let schema () =
  let sch = Schema.create () in
  Schema.add_type sch "obj";
  Schema.declare_relationship sch ~from_type:"obj" ~rel:"refs" ~to_type:"obj" ~inverse:"rrefs"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"obj" (Rule.intrinsic "payload" (Value.Int 0));
  sch

type base = {
  db : Db.t;
  ids : int array;
  adj : int list array;  (* reference copy: target indices in link order *)
}

(* [objects] objects with payload = index, each referencing [fanout]
   distinct others: with probability [locality] a member of its module
   (a shuffled group of 64), else any object.  Batched transactions. *)
let populate db rng ~objects ~fanout ~locality =
  let module_size = 64 in
  let ids = Array.make objects 0 in
  let i = ref 0 in
  while !i < objects do
    Db.with_txn db (fun () ->
        let stop = min objects (!i + 500) in
        while !i < stop do
          let id = Db.create_instance db "obj" in
          Db.set db id "payload" (Value.Int !i);
          ids.(!i) <- id;
          incr i
        done)
  done;
  let perm = Array.init objects (fun k -> k) in
  Rng.shuffle rng perm;
  let inv = Array.make objects 0 in
  Array.iteri (fun pos k -> inv.(k) <- pos) perm;
  let pick j =
    if Rng.chance rng locality then begin
      let base = inv.(j) / module_size * module_size in
      perm.(base + Rng.int rng (min module_size (objects - base)))
    end
    else Rng.int rng objects
  in
  let adj = Array.make objects [] in
  let j = ref 0 in
  while !j < objects do
    Db.with_txn db (fun () ->
        let stop = min objects (!j + 500) in
        while !j < stop do
          for _ = 1 to fanout do
            let other = pick !j in
            if other <> !j && not (List.mem other adj.(!j)) then begin
              Db.link db ~from_id:ids.(!j) ~rel:"refs" ~to_id:ids.(other);
              adj.(!j) <- other :: adj.(!j)
            end
          done;
          adj.(!j) <- List.rev adj.(!j);
          incr j
        done)
  done;
  (ids, adj)

let zipf_root rng n = Rng.zipf rng n 1.1
let depth = 4

(* One OCB hierarchy traversal: read the payload, then descend into
   every reference, [depth] levels deep.  Returns the payload sum. *)
let traverse tr db root =
  let rec go id d acc =
    let acc =
      acc + Value.as_int (Spans.span tr "db.get" (fun () -> Db.get db id "payload"))
    in
    if d = 0 then acc
    else
      List.fold_left
        (fun acc r -> go r (d - 1) acc)
        acc
        (Spans.span tr "db.related" (fun () -> Db.related db id "refs"))
  in
  go root depth 0

(* The same traversal over the reference copy of the graph. *)
let reference_traverse adj root =
  let rec go k d acc =
    let acc = acc + k in
    if d = 0 then acc else List.fold_left (fun acc r -> go r (d - 1) acc) acc adj.(k)
  in
  go root depth 0

(* The object base is E16's (generator seed 7) whatever the run's seed,
   which drives the training and measured traversal streams. *)
let base_seed = 7

type pass = { ops : int; op : Common.windowed; sums : int list; failed : int }

let run (cfg : Common.config) =
  let objects, pool, train, window =
    if cfg.quick then (3000, 16, 300, 200) else (30_000, 128, 3000, 2000)
  in
  let reps, before = if cfg.quick then (2, 1) else (3, 2) in
  let close (b : base) = Pager.close (Cactis.Store.pager (Db.store b.db)) in
  let b, setup =
    Common.repeated_setup ~reps ~before ~discard:close (fun rep ->
        let path = Filename.concat cfg.work (Printf.sprintf "ocb%d.blocks" rep) in
        let db =
          Db.create ~block_capacity:8 ~buffer_capacity:pool ~disk_path:path (schema ())
        in
        let rng = Rng.create base_seed in
        let ids, adj = populate db rng ~objects ~fanout:3 ~locality:0.9 in
        let trng = Rng.create ((cfg.seed * 1_000_003) + 2) in
        let quiet = Spans.create () in
        for _ = 1 to train do
          ignore (traverse quiet db ids.(zipf_root trng objects))
        done;
        ignore (Db.recluster db);
        { db; ids; adj })
  in
  let db = b.db in
  let pager = Cactis.Store.pager (Db.store db) in
  let disk = Pager.disk pager and bp = Pager.pool pager in
  Pager.reset_io pager;
  let rng = Rng.create ((cfg.seed * 1_000_003) + 3) in
  let roots = ref [] in
  let tr = Spans.create () in
  let window_reads = ref [] and peak_rss = ref 0.0 in
  let pass ~count_window =
    let op = Common.windowed () in
    let sums = ref [] and failed = ref 0 in
    let min_ops, seconds = Common.pass_length cfg ~count_window ~window in
    let ops =
      Common.closed_loop ~min_ops ~seconds (fun i ->
          if count_window && i = 0 then Common.reset_peak_rss "self";
          if count_window && i = window then peak_rss := Common.peak_rss_mb "self";
          if count_window && (i = 0 || i = window) then
            window_reads := Disk.reads disk :: !window_reads;
          tr.Spans.op <- i;
          let root = zipf_root rng objects in
          roots := root :: !roots;
          try
            sums :=
              Common.timed_w op (fun () ->
                  Spans.span tr "op.traverse" (fun () -> traverse tr db b.ids.(root)))
              :: !sums
          with e ->
            incr failed;
            sums := -1 :: !sums;
            prerr_endline ("ocb-traverse op failed: " ^ Printexc.to_string e))
    in
    { ops; op; sums = !sums; failed = !failed }
  in
  let gc0 = Common.gc_mark () in
  let base = pass ~count_window:true in
  let gc = Common.gc_per_op gc0 base.ops in
  let hits = Buffer_pool.hits bp and misses = Buffer_pool.misses bp in
  let writebacks = Buffer_pool.writebacks bp in
  let traced =
    if cfg.trace then begin
      tr.Spans.on <- true;
      let t = pass ~count_window:false in
      tr.Spans.on <- false;
      Spans.write_chrome tr
        (Filename.concat (Filename.dirname cfg.work)
           "trace-ocb-traverse.json");
      Some t
    end
    else None
  in
  (* ---- correctness: every traversal's payload sum equals a replay
     over the in-memory reference copy of the graph ---- *)
  let sums = (match traced with Some t -> t.sums | None -> []) @ base.sums in
  let mismatches =
    List.fold_left2
      (fun bad root sum ->
        (* a failed op (sum -1) is already counted as failed *)
        if sum <> -1 && reference_traverse b.adj root <> sum then bad + 1 else bad)
      0 !roots sums
  in
  let problems =
    if mismatches = 0 then []
    else [ Printf.sprintf "%d traversals disagree with the reference replay" mismatches ]
  in
  let blocks = Pager.blocks_in_use pager in
  let floors = Floors.measure ~dir:cfg.work db in
  close b;
  let setup_s = Common.setup_finish setup in
  let window_blocks =
    match !window_reads with [ r1; r0 ] -> r1 - r0 | _ -> 0
  in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", !peak_rss, "MiB");
    ]
    @ fst (Common.window_metrics base.op)
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
      let per_traversal = Common.per window_blocks window in
      let traverse_p50 = Stats.quantile base.op.Common.all 0.5 in
      [
        ("traverse_p50_us", traverse_p50, "us");
        ("traverse_p99_us", Stats.quantile base.op.Common.all 0.99, "us");
        ("disk.block_reads_per_traversal", per_traversal, "count");
        ("disk.blocks_in_use", float_of_int blocks, "count");
        ("buffer_pool.hit_rate", Common.per hits (hits + misses), "ratio");
        ("buffer_pool.writebacks", float_of_int writebacks, "count");
        ("db.get_us", Spans.p50 tr "db.get", "us");
        ("db.related_us", Spans.p50 tr "db.related", "us");
        ("self.db_us_per_op", Spans.self_per_op tr "db" t.ops, "us");
        ("self.bench_us_per_op", Spans.self_per_op tr "op" t.ops, "us");
        ("trace.spans_per_op", Common.per tr.Spans.n_spans t.ops, "count");
        ( "x_floor.traverse_block_reads",
          Common.ratio traverse_p50 (per_traversal *. Common.value floors "floor.block_read_us"),
          "x" );
      ]
      @ snd (Common.window_metrics base.op)
      @ Common.trace_overhead ~base:base.op ~traced:t.op
      @ gc @ floors
  in
  {
    Common.attempted = base.ops + (match traced with Some t -> t.ops | None -> 0);
    failed = base.failed + (match traced with Some t -> t.failed | None -> 0) + mismatches;
    problems;
    e2e;
    layers;
    counts = [ ("disk.block_reads", window_blocks, window) ];
  }
