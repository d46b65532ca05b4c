(* Benchmark entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test

   Builds the workload's inputs from the seed, measures one untraced
   pass of S seconds (plus, with --trace 1, a second, traced pass),
   checks the outputs, and prints as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end
   metrics without tracing, the per-layer metrics with it.  Exact counts
   (engine work, block reads, log bytes) are recorded per seed and
   binary under .bench_work/counts and must repeat bit-identically.
   --self-test runs every workload at reduced size, traced, twice with
   one seed, and checks both runs agree on their exact counts. *)

(* Every end-to-end metric (always printed with --trace 0). *)
let e2e_names = [ "setup_s"; "peak_rss_mb"; "ops_per_ref"; "op_p50_ref"; "op_p90_ref" ]

(* Every per-layer metric, printed with --trace 1; a workload whose path
   does not cross a layer reports 0 for it. *)
let layer_names =
  [
    ("commit_p50_us", "us"); ("commit_p99_us", "us"); ("read_p50_us", "us");
    ("select_p50_us", "us"); ("traverse_p50_us", "us"); ("traverse_p99_us", "us");
    ("log_bytes_per_commit", "B"); ("db.set_us", "us"); ("db.commit_us", "us");
    ("db.get_us", "us"); ("db.related_us", "us"); ("wal.append_us", "us");
    ("wal.fsync_us", "us"); ("engine.eval_us", "us"); ("engine.mark_visits_per_op", "count");
    ("engine.rule_evals_per_op", "count"); ("query.select_us", "us");
    ("disk.block_reads_per_traversal", "count"); ("disk.blocks_in_use", "count");
    ("buffer_pool.hit_rate", "ratio");
    ("buffer_pool.writebacks", "count"); ("server.traverse_us", "us");
    ("server.commit_us", "us"); ("server.wal_fsync_us", "us");
    ("net.traverse_overhead_us", "us"); ("net.commit_overhead_us", "us");
    ("replica.catchup_us", "us"); ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_op", "count"); ("floor.fsync_us", "us");
    ("floor.loopback_rtt_us", "us"); ("floor.codec_encode_mb_s", "MB/s");
    ("floor.codec_decode_mb_s", "MB/s"); ("floor.block_read_us", "us");
    ("x_floor.wal_fsync", "x"); ("x_floor.wal_append_codec", "x");
    ("x_floor.server_wal_fsync", "x"); ("x_floor.net_traverse_rtt", "x");
    ("x_floor.net_commit_rtt", "x"); ("x_floor.traverse_block_reads", "x");
    ("self.db_us_per_op", "us"); ("self.query_us_per_op", "us");
    ("self.client_us_per_op", "us"); ("self.bench_us_per_op", "us");
    ("trace.spans_per_op", "count"); ("trace.overhead_op_p50_us", "us");
    ("trace.overhead_pct", "%"); ("ops_per_s", "1/s"); ("op_p50_us", "us"); ("op_p90_us", "us");
    ("op_p99_us", "us"); ("ref_us", "us");
  ]

let workloads =
  [
    ("plan-edit", Plan_edit.run);
    ("ocb-traverse", Ocb_traverse.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let work_root = ".bench_work"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* Exact counts must repeat for the same workload, seed and binary: the
   first run records them, later runs compare. *)
let check_counts ~workload ~seed ~quick counts =
  let dir = Filename.concat work_root "counts" in
  Common.mkdir_p dir;
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%d%s-%s.txt" workload seed (if quick then "-quick" else "") exe)
  in
  let text =
    String.concat ""
      (List.map (fun (name, num, den) -> Printf.sprintf "%s %d/%d\n" name num den) counts)
  in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let before = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if before <> text then
      [ Printf.sprintf "exact counts drifted for seed %d:\nbefore:\n%safter:\n%s" seed before text ]
    else []
  end
  else begin
    let oc = open_out_bin path in
    output_string oc text;
    close_out oc;
    []
  end

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let run_workload ~workload ~seed ~seconds ~trace ~quick =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
      fail "unknown workload %S (known: %s)" workload
        (String.concat ", " (List.map fst workloads))
  in
  let work =
    Common.fresh_dir (Filename.concat work_root (Printf.sprintf "%s-%d" workload (Unix.getpid ())))
  in
  let cfg = { Common.seed; seconds; trace; quick; work } in
  let o = run cfg in
  Common.rm_rf work;
  let problems = o.Common.problems @ check_counts ~workload ~seed ~quick o.Common.counts in
  let metrics =
    if trace then
      List.map (fun (name, unit_) -> (name, Common.value o.Common.layers name, unit_)) layer_names
    else List.filter (fun (name, _, _) -> List.mem name e2e_names) o.Common.e2e
  in
  let expected = if trace then List.map fst layer_names else e2e_names in
  List.iter
    (fun name ->
      if not (List.exists (fun (n, _, _) -> n = name) metrics) then fail "metric %s missing" name)
    expected;
  List.iter
    (fun (name, _, _) ->
      if not (List.mem_assoc name layer_names || List.mem name e2e_names) then
        fail "workload reported unlisted metric %s" name)
    (o.Common.e2e @ o.Common.layers);
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) problems;
  let correct = problems = [] && o.Common.failed = 0 in
  (o, metrics, correct)

let print_result (o : Common.outcome) metrics correct =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
          metrics))

let self_test () =
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      let counts () =
        let o, metrics, correct =
          run_workload ~workload ~seed:1 ~seconds:0.5 ~trace:true ~quick:true
        in
        Printf.printf "%-13s correct=%b attempted=%d failed=%d per-layer metrics=%d\n%!" workload
          correct o.Common.attempted o.Common.failed (List.length metrics);
        if not correct then ok := false;
        o.Common.counts
      in
      let first = counts () in
      if counts () <> first then begin
        Printf.printf "%-13s exact counts differ between two runs of one seed\n" workload;
        ok := false
      end)
    workloads;
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  exit (if !ok then 0 else 1)

let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "serve-child" then
    Serve_mixed.child_main (Array.sub argv 2 (Array.length argv - 2))
  else if Array.length argv > 1 && argv.(1) = "--self-test" then self_test ()
  else begin
    let arg key =
      let v = ref None in
      Array.iteri
        (fun i a -> if a = key && i + 1 < Array.length argv then v := Some argv.(i + 1))
        argv;
      match !v with Some v -> v | None -> fail "missing %s" key
    in
    let int_arg key =
      match int_of_string_opt (arg key) with Some n -> n | None -> fail "%s wants an integer" key
    in
    let workload = arg "--workload" and seed = int_arg "--seed" in
    let seconds = float_of_int (int_arg "--seconds") in
    let trace =
      match arg "--trace" with "0" -> false | "1" -> true | _ -> fail "--trace wants 0 or 1"
    in
    if seconds <= 0.0 then fail "--seconds must be positive";
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let o, metrics, correct = run_workload ~workload ~seed ~seconds ~trace ~quick:false in
    print_result o metrics correct;
    exit (if correct then 0 else 1)
  end
