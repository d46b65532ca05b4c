(* serve-mixed: several tools sharing one database over loopback TCP.
   The server is a child process (this binary re-executed, since OCaml 5
   cannot fork once domains run) running Server with one reader domain
   and Persist attached (fsync on every commit).  It holds a layered
   [node] DAG whose derived [total] = local + Σ deps.total.  One client
   connection runs a closed loop: ~90% depth-3 Traverse over deps
   reading total, with read-your-writes (min_version = own last
   commit), ~10% Commit setting one local.  Frame/Proto, frontend
   routing, the writer, the broadcast and the reader replica's replay
   and re-propagation do the work. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Persist = Cactis.Persist
module Rng = Cactis_util.Rng
module Client = Cactis_net.Client
module Server = Cactis_net.Server
module Proto = Cactis_net.Proto
module Load = Cactis_net.Load

let schema_src =
  {|
  object class node is
    relationships
      deps  : node multi socket inverse rdeps;
      rdeps : node multi plug   inverse deps;
    attributes
      local : int := 1;
    rules
      total = local + sum(deps.total default 0);
  end object;
|}

let schema () = Cactis_ddl.Elaborate.load_string schema_src
let depth = 3

(* [layers] × [width] nodes; each node depends on 1–2 nodes of the next
   layer.  Deterministic in [seed], so the server child and the
   client's in-process replay build identical databases. *)
let build db ~seed ~layers ~width =
  let rng = Rng.create seed in
  let layer_ids =
    Array.init layers (fun _ ->
        Db.with_txn db (fun () -> Array.init width (fun _ -> Db.create_instance db "node")))
  in
  for l = 0 to layers - 2 do
    Db.with_txn db (fun () ->
        Array.iter
          (fun upper ->
            for _ = 1 to 1 + Rng.int rng 2 do
              let lower = Rng.pick rng layer_ids.(l + 1) in
              if not (List.mem lower (Db.related db upper "deps")) then
                Db.link db ~from_id:upper ~rel:"deps" ~to_id:lower
            done)
          layer_ids.(l))
  done;
  Array.concat (Array.to_list layer_ids)

(* Server.traverse's semantics, evaluated in process: breadth-first,
   each node counted once at its shallowest depth, totals summed. *)
let local_traverse db root =
  let seen = Hashtbl.create 64 in
  let frontier = ref [ root ] and d = ref 0 and sum = ref 0 in
  while !frontier <> [] && !d <= depth do
    let next = ref [] in
    List.iter
      (fun id ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          sum := !sum + Value.as_int (Db.get ~watch:false db id "total");
          next := List.rev_append (Db.related db id "deps") !next
        end)
      !frontier;
    frontier := !next;
    incr d
  done;
  (Hashtbl.length seen, !sum)

(* The DAG is fixed (generator seed 7) whatever the run's seed, which
   drives the request stream. *)
let dag_seed = 7

let sizes quick = if quick then (8, 25) else (16, 64)

(* ---- placement ----

   The client (this process) and the server child share one CPU: the
   child inherits this process's affinity.  Left to the scheduler, the
   client and three server domains on a 2-CPU VM settled into different
   arrangements from run to run, and cross-CPU wake-ups moved the
   round-trip figures by up to 25%; on one CPU the per-window reference
   timing (Common.reference) also sees the server's share of it. *)

let last_allowed_cpu () =
  let ic = open_in "/proc/self/status" in
  let key = "Cpus_allowed_list:" in
  let n = String.length key in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line when String.length line > n && String.sub line 0 n = key ->
      let list = String.trim (String.sub line n (String.length line - n)) in
      let last = List.hd (List.rev (String.split_on_char ',' list)) in
      int_of_string_opt (List.hd (List.rev (String.split_on_char '-' last)))
    | _ -> scan ()
  in
  let cpu = scan () in
  close_in ic;
  cpu

let place () =
  match last_allowed_cpu () with
  | Some cpu ->
    ignore (Sys.command (Printf.sprintf "taskset -p -c %d %d >/dev/null 2>&1" cpu (Unix.getpid ())))
  | None -> ()

(* ---- the server child ---- *)

let child_main argv =
  let dir = argv.(0) and quick = argv.(1) = "1" in
  let layers, width = sizes quick in
  let db = Db.create (schema ()) in
  let ids = build db ~seed:dag_seed ~layers ~width in
  let p = Persist.attach ~dir db in
  let server =
    Server.start ~config:(Server.config ~readers:1 ~slow_ms:0. ()) ~make_schema:schema db
  in
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  Printf.printf "READY port=%d first=%d nodes=%d\n%!" (Server.port server) ids.(0)
    (Array.length ids);
  while not (Atomic.get stop) do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Server.stop server;
  Persist.close p;
  print_endline "STOPPED";
  exit 0

(* ---- the client (the benchmark process) ---- *)

(* sum / count of one histogram family in an OpenMetrics text. *)
let metric_sum_count text family =
  let find suffix =
    let key = family ^ suffix ^ " " in
    List.fold_left
      (fun acc line ->
        let n = String.length key in
        if String.length line > n && String.sub line 0 n = key then
          float_of_string (String.sub line n (String.length line - n))
        else acc)
      0.0
      (String.split_on_char '\n' text)
  in
  (find "_sum", find "_count")

type server = { child : Load.child; client : Client.t; first : int; nodes : int; dir : string }

let stop_server s =
  (try Client.close s.client with _ -> ());
  let lines, status = Load.terminate s.child in
  status = Unix.WEXITED 0 && List.mem "STOPPED" lines

type pass = {
  ops : int;
  op : Common.windowed;
  commit : Stats.t;
  traverse : Stats.t;
  catchup : Stats.t;  (* the first traverse after each own commit *)
  failed : int;
}

let run (cfg : Common.config) =
  let layers, width = sizes cfg.quick in
  let window = if cfg.quick then 300 else 3000 in
  let reps, before = if cfg.quick then (2, 1) else (5, 3) in
  let live = ref [] in
  place ();
  let spawn rep =
    let dir = Common.fresh_dir (Filename.concat cfg.work (Printf.sprintf "serve%d" rep)) in
    let child =
      Load.spawn
        ~args:[ "serve-child"; dir; (if cfg.quick then "1" else "0") ]
    in
    live := child :: !live;
    let kv =
      match Load.read_line ~timeout_s:60. child with
      | Some l -> Load.kv l
      | None -> failwith "serve-mixed: server exited before READY"
    in
    let get k = int_of_string (List.assoc k kv) in
    let client = Client.connect ~port:(get "port") () in
    { child; client; first = get "first"; nodes = get "nodes"; dir }
  in
  let clean_exits = ref true in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try ignore (Load.terminate c) with _ -> ()) !live)
    (fun () ->
      let s, setup =
        Common.repeated_setup ~reps ~before
          ~discard:(fun s -> if not (stop_server s) then clean_exits := false)
          spawn
      in
      live := [ s.child ];
      let c = s.client and n = s.nodes in
      let node k = s.first + k in
      let wal = Filename.concat s.dir "wal.log" in
      let rng = Rng.create ((cfg.seed * 1_000_003) + 4) in
      let committed = ref [] in
      let tr = Spans.create () in
      let window_marks = ref [] and peak_rss = ref 0.0 in
      let server_pid = string_of_int (Load.pid s.child) in
      let pass ~count_window =
        let op = Common.windowed () and commit = Stats.create () in
        let traverse = Stats.create () and catchup = Stats.create () in
        let failed = ref 0 and after_commit = ref false and commits = ref 0 in
        let min_ops, seconds = Common.pass_length cfg ~count_window ~window in
        let ops =
          Common.closed_loop ~min_ops ~seconds (fun i ->
              if count_window && i = 0 then Common.reset_peak_rss server_pid;
              if count_window && i = window then peak_rss := Common.peak_rss_mb server_pid;
              if count_window && (i = 0 || i = window) then
                window_marks := (Common.file_size wal, !commits) :: !window_marks;
              tr.Spans.op <- i;
              let is_commit = Rng.int rng 100 < 10 in
              let k = Rng.int rng n and v = Rng.int rng 1000 in
              try
                Common.timed_w op (fun () ->
                    Spans.span tr "op.request" (fun () ->
                        if is_commit then begin
                          Common.timed commit (fun () ->
                              Spans.span tr "client.commit" (fun () ->
                                  ignore
                                    (Client.commit c
                                       [
                                         Proto.Set
                                           { instance = node k; attr = "local"; value = Value.Int v };
                                       ])));
                          committed := (k, v) :: !committed;
                          incr commits;
                          after_commit := true
                        end
                        else begin
                          let t1 = Common.now_ns () in
                          let visited, _, _ =
                            Spans.span tr "client.traverse" (fun () ->
                                Client.traverse ~depth c ~root:(node k) ~rel:"deps" ~attr:"total")
                          in
                          let us = Common.us_since t1 in
                          Stats.add (if !after_commit then catchup else traverse) us;
                          after_commit := false;
                          if visited < 1 then failwith "empty traversal"
                        end))
              with e ->
                incr failed;
                prerr_endline ("serve-mixed op failed: " ^ Printexc.to_string e))
        in
        { ops; op; commit; traverse; catchup; failed = !failed }
      in
      let gc0 = Common.gc_mark () in
      let base = pass ~count_window:true in
      let gc = Common.gc_per_op gc0 base.ops in
      let _, lats = Client.stats c in
      let fsync_sum, fsync_count =
        metric_sum_count (Client.metrics c) "cactis_db_wal_fsync_seconds"
      in
      let traced =
        if cfg.trace then begin
          tr.Spans.on <- true;
          let t = pass ~count_window:false in
          tr.Spans.on <- false;
          Spans.write_chrome tr
            (Filename.concat (Filename.dirname cfg.work)
               "trace-serve-mixed.json");
          Some t
        end
        else None
      in
      let rtt =
        if cfg.trace then begin
          let s = Stats.create () in
          for _ = 1 to 1000 do
            Common.timed s (fun () -> Client.ping c)
          done;
          Stats.quantile s 0.5
        end
        else 0.0
      in
      (* ---- correctness ---- *)
      let problems = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      let replay = Db.create (schema ()) in
      let ids = build replay ~seed:dag_seed ~layers ~width in
      if Array.to_list ids <> List.init n node then problem "replay ids differ from the server's";
      List.iter
        (fun (k, v) -> Db.with_txn replay (fun () -> Db.set replay ids.(k) "local" (Value.Int v)))
        (List.rev !committed);
      let crng = Rng.create ((cfg.seed * 1_000_003) + 5) in
      for _ = 1 to 100 do
        let k = Rng.int crng n in
        let visited, total, _ = Client.traverse ~depth c ~root:(node k) ~rel:"deps" ~attr:"total" in
        let lv, lt = local_traverse replay ids.(k) in
        if visited <> lv || not (Value.equal total (Value.Int lt)) then
          problem "traverse from node %d: server (%d, %s), replay (%d, %d)" k visited
            (Value.to_string total) lv lt
      done;
      let counters, _ = Client.stats c in
      List.iter
        (fun (name, v) ->
          if v > 0 && String.length name >= 13 && String.sub name 0 13 = "server.error." then
            problem "server reported %s = %d" name v)
        counters;
      if not (stop_server s) then clean_exits := false;
      let setup_s = Common.setup_finish setup in
      live := [];
      if not !clean_exits then problem "a server child did not exit 0 on SIGTERM";
      (* ---- metrics ---- *)
      let floors = Floors.measure ~dir:cfg.work replay in
      let wal_bytes, window_commits =
        match !window_marks with [ (b1, c1); (b0, c0) ] -> (b1 - b0, c1 - c0) | _ -> (0, 0)
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
          let server_mean verb =
            match List.find_opt (fun l -> l.Proto.l_name = "serve." ^ verb) lats with
            | Some l -> l.Proto.l_mean *. 1e6
            | None -> 0.0
          in
          let all_traverse = Stats.merge base.traverse base.catchup in
          let net_traverse = Stats.mean all_traverse -. server_mean "traverse" in
          let net_commit = Stats.mean base.commit -. server_mean "commit" in
          let wal_fsync = Common.ratio (fsync_sum *. 1e6) fsync_count in
          [
            ("commit_p50_us", Stats.quantile base.commit 0.5, "us");
            ("commit_p99_us", Stats.quantile base.commit 0.99, "us");
            ("traverse_p50_us", Stats.quantile all_traverse 0.5, "us");
            ("traverse_p99_us", Stats.quantile all_traverse 0.99, "us");
            ("log_bytes_per_commit", Common.per wal_bytes window_commits, "B");
            ("server.traverse_us", server_mean "traverse", "us");
            ("server.commit_us", server_mean "commit", "us");
            ("server.wal_fsync_us", wal_fsync, "us");
            ("net.traverse_overhead_us", net_traverse, "us");
            ("net.commit_overhead_us", net_commit, "us");
            ( "replica.catchup_us",
              Stats.quantile base.catchup 0.5 -. Stats.quantile base.traverse 0.5,
              "us" );
            ("floor.loopback_rtt_us", rtt, "us");
            ("self.client_us_per_op", Spans.self_per_op tr "client" t.ops, "us");
            ("self.bench_us_per_op", Spans.self_per_op tr "op" t.ops, "us");
            ("trace.spans_per_op", Common.per tr.Spans.n_spans t.ops, "count");
            ( "x_floor.server_wal_fsync",
              Common.ratio wal_fsync (Common.value floors "floor.fsync_us"),
              "x" );
            ("x_floor.net_traverse_rtt", Common.ratio net_traverse rtt, "x");
            ("x_floor.net_commit_rtt", Common.ratio net_commit rtt, "x");
          ]
          @ snd (Common.window_metrics base.op)
          @ Common.trace_overhead ~base:base.op ~traced:t.op
          @ gc @ floors
      in
      {
        Common.attempted = base.ops + (match traced with Some t -> t.ops | None -> 0);
        failed = base.failed + (match traced with Some t -> t.failed | None -> 0);
        problems = List.rev !problems;
        e2e;
        layers;
        counts = [ ("wal.bytes", wal_bytes, window_commits) ];
      })
