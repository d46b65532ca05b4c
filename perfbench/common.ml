(* Shared plumbing: run configuration, the monotonic clock, the outcome
   every workload returns, and small OS probes (peak RSS, GC, files). *)

module Clock = Cactis_obs.Clock

type config = {
  seed : int;
  seconds : float;  (* length of one measured pass *)
  trace : bool;  (* add the traced pass and report per-layer metrics *)
  quick : bool;  (* self-test: reduced sizes, same code path *)
  work : string;  (* working directory of this run, inside the checkout *)
}

(* [(min_ops, seconds)] of a pass.  The untraced pass runs the full
   length and at least [window + 1] ops, so the exact-count window over
   its first [window] ops always completes; the traced pass only feeds
   per-layer figures, and five seconds of spans are plenty. *)
let pass_length cfg ~count_window ~window =
  if count_window then (window + 1, cfg.seconds) else (0, Float.min cfg.seconds 5.0)

(* A metric as printed: name, value, unit. *)
type metric = string * float * string

type outcome = {
  attempted : int;
  failed : int;  (* failed or wrong operations *)
  problems : string list;  (* failed correctness checks, human-readable *)
  e2e : metric list;  (* untraced end-to-end metrics *)
  layers : metric list;  (* per-layer metrics (traced runs) *)
  counts : (string * int * int) list;
      (* exact counts as numerator/denominator; they must repeat
         bit-identically for the same seed and the same binary *)
}

(* The value of metric [name] in [metrics] (0 when absent). *)
let value metrics name =
  match List.find_opt (fun (k, _, _) -> k = name) metrics with Some (_, v, _) -> v | None -> 0.0

let now_ns = Clock.now_ns
let us_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3

(* [timed samples f] runs [f], adds its wall time (µs) to [samples]. *)
let timed samples f =
  let t0 = now_ns () in
  let v = f () in
  Stats.add samples (us_since t0);
  v

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per num den = ratio (float_of_int num) (float_of_int den)

(* Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Restart a process's peak-RSS mark from its current RSS (Linux
   clear_refs "5"); a no-op where unsupported. *)
let reset_peak_rss pid =
  try
    let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory. *)
let fresh_dir dir =
  rm_rf dir;
  mkdir_p dir;
  dir

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Minor words allocated and major collections completed so far. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let gc_per_op (w0, c0) ops =
  let w1, c1 = gc_mark () in
  [
    ("gc.minor_words_per_op", ratio (w1 -. w0) (float_of_int ops), "words");
    ("gc.major_collections_per_op", per (c1 - c0) ops, "count");
  ]

(* Set-up is timed [reps] times per run and reported as the median, in
   seconds.  [repeated_setup] runs the first [before] repetitions: the
   last one's result is the one measured, earlier ones go to [discard].
   The others run later, one per [setup_step] or all at [setup_finish],
   so the median samples the machine at several moments: a set-up of a
   few milliseconds otherwise fell wholly into one of the machine's fast
   or slow phases (1.7x apart), and its median flipped from run to run. *)
type 'a setup = {
  rep : int -> 'a;
  discard : 'a -> unit;
  reps : int;
  mutable next : int;
  mutable times : float list;
}

let setup_rep s =
  Gc.compact ();
  let t0 = now_ns () in
  let v = s.rep s.next in
  s.times <- (us_since t0 /. 1e6) :: s.times;
  s.next <- s.next + 1;
  v

let repeated_setup ~reps ~before ~discard f =
  let s = { rep = f; discard; reps; next = 0; times = [] } in
  let rec go () =
    let v = setup_rep s in
    if s.next >= before then v
    else begin
      discard v;
      go ()
    end
  in
  let v = go () in
  Gc.compact ();
  (v, s)

(* One more (discarded) repetition, if any are left. *)
let setup_step s = if s.next < s.reps then s.discard (setup_rep s)

let setup_finish s =
  while s.next < s.reps do
    setup_step s
  done;
  Stats.median_of s.times

(* Run [op] in a closed loop until [seconds] elapse and at least
   [min_ops] ops ran (so a count window of a fixed op prefix always
   completes); [op i] gets the op's index within the pass.  Returns the
   number of ops. *)
let closed_loop ?(min_ops = 0) ~seconds op =
  let deadline = Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let i = ref 0 in
  while !i < min_ops || Int64.compare (now_ns ()) deadline < 0 do
    op !i;
    incr i
  done;
  !i

(* ---- Windowed per-op statistics ----

   A measured pass is cut into consecutive half-second windows.  The
   machine's speed is not constant: on a shared 2-CPU VM the same pure
   OCaml loop ran 1.7x slower for seconds at a time, and whole runs
   drifted by 10-20%.  So every window also times a fixed reference
   computation ten times, and the end-to-end timings are per-op figures
   divided by the window's median reference time (unit "ref": multiples
   of the reference), taken as medians over windows.  The raw figures
   (µs, ops/s) are kept as per-layer metrics. *)

(* A fixed slice of allocation-heavy OCaml work (hashing, consing,
   sorting); returns its wall time in µs. *)
let reference () =
  let t0 = now_ns () in
  let h = Hashtbl.create 64 in
  let l = ref [] in
  for i = 1 to 600 do
    Hashtbl.replace h (i * 7919 mod 1543) i;
    l := float_of_int (i * 31 mod 977) :: !l
  done;
  let a = Array.of_list !l in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (Hashtbl.length h, a));
  us_since t0

type window = { p50 : float; p90 : float; rate : float; ref_us : float }

type windowed = {
  all : Stats.t;
  started : int64;
  mutable last : int64;  (* end of the latest op *)
  mutable win : Stats.t;
  mutable win_refs : Stats.t;
  mutable win_start : int64;
  mutable next_ref : int64;
  mutable windows : window list;
}

let window_ns = 500_000_000L
let ref_every_ns = 50_000_000L

let windowed () =
  let now = now_ns () in
  {
    all = Stats.create ();
    started = now;
    last = now;
    win = Stats.create ();
    win_refs = Stats.create ();
    win_start = now;
    next_ref = now;
    windows = [];
  }

let observe w us =
  Stats.add w.all us;
  Stats.add w.win us;
  let now = now_ns () in
  w.last <- now;
  if Int64.compare now w.next_ref >= 0 then begin
    Stats.add w.win_refs (reference ());
    w.next_ref <- Int64.add now ref_every_ns
  end;
  let span = Int64.sub now w.win_start in
  if Int64.compare span window_ns >= 0 then begin
    let q = Stats.quantile_sorted (Stats.sorted w.win) in
    w.windows <-
      {
        p50 = q 0.5;
        p90 = q 0.9;
        rate = float_of_int (Stats.count w.win) /. (Int64.to_float span /. 1e9);
        ref_us = Stats.quantile w.win_refs 0.5;
      }
      :: w.windows;
    w.win <- Stats.create ();
    w.win_refs <- Stats.create ();
    w.win_start <- now_ns ()
  end

(* Run [f] between ops without charging it to the current window. *)
let pause w f =
  let t0 = now_ns () in
  f ();
  let d = Int64.sub (now_ns ()) t0 in
  w.win_start <- Int64.add w.win_start d;
  w.next_ref <- Int64.add w.next_ref d

let timed_w w f =
  let t0 = now_ns () in
  let v = f () in
  observe w (us_since t0);
  v

(* [(end-to-end, raw per-layer)] figures of a pass; a pass shorter than
   one window counts as one window. *)
let window_metrics w =
  let windows =
    if w.windows <> [] then w.windows
    else
      let q = Stats.quantile_sorted (Stats.sorted w.all) in
      let secs = Int64.to_float (Int64.sub w.last w.started) /. 1e9 in
      [
        {
          p50 = q 0.5;
          p90 = q 0.9;
          rate = ratio (float_of_int (Stats.count w.all)) secs;
          ref_us = reference ();
        };
      ]
  in
  let med f = Stats.median_of (List.map f windows) in
  ( [
      ("ops_per_ref", med (fun x -> x.rate *. x.ref_us /. 1e6), "1/ref");
      ("op_p50_ref", med (fun x -> x.p50 /. x.ref_us), "ref");
      ("op_p90_ref", med (fun x -> x.p90 /. x.ref_us), "ref");
    ],
    [
      ("ops_per_s", med (fun x -> x.rate), "1/s");
      ("op_p50_us", med (fun x -> x.p50), "us");
      ("op_p90_us", med (fun x -> x.p90), "us");
      ("op_p99_us", Stats.quantile w.all 0.99, "us");
      ("ref_us", med (fun x -> x.ref_us), "us");
    ] )

(* Tracing overhead: the traced pass's per-op median against the
   untraced one's, both in reference units (the passes run at different
   times, so raw microseconds would carry the machine's drift). *)
let trace_overhead ~base ~traced =
  let e2e_b, raw_b = window_metrics base and e2e_t, _ = window_metrics traced in
  let p50_b = value e2e_b "op_p50_ref" and p50_t = value e2e_t "op_p50_ref" in
  [
    ("trace.overhead_op_p50_us", (p50_t -. p50_b) *. value raw_b "ref_us", "us");
    ("trace.overhead_pct", 100. *. (ratio p50_t p50_b -. 1.), "%");
  ]
