(* The benchmark's own tracer.  Spans wrap the benchmark's calls into
   the library's public functions (nothing inside lib/ is traced); the
   spans of one op share that op's id.  Per span name it keeps every
   duration (for per-call percentiles) and per layer the self time
   (duration minus the time covered by child spans).  The first
   [cap] spans are also kept as Chrome trace events for Perfetto. *)

type t = {
  mutable on : bool;
  mutable op : int;  (* id of the op the next spans belong to *)
  durations : (string, Stats.t) Hashtbl.t;
  self_us : (string, float ref) Hashtbl.t;  (* by layer *)
  mutable stack : float ref list;  (* child time of each open span *)
  origin : int64;
  events : Buffer.t;
  mutable n_events : int;
  cap : int;
  mutable n_spans : int;
}

let create ?(cap = 50_000) () =
  {
    on = false;
    op = 0;
    durations = Hashtbl.create 16;
    self_us = Hashtbl.create 8;
    stack = [];
    origin = Common.now_ns ();
    events = Buffer.create 65536;
    n_events = 0;
    cap;
    n_spans = 0;
  }

(* A span name is "layer.call"; its layer is the part before the dot. *)
let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let samples t name =
  match Hashtbl.find_opt t.durations name with
  | Some s -> s
  | None ->
    let s = Stats.create () in
    Hashtbl.replace t.durations name s;
    s

let record t name ~start ~dur ~self =
  t.n_spans <- t.n_spans + 1;
  Stats.add (samples t name) dur;
  let layer = layer_of name in
  (match Hashtbl.find_opt t.self_us layer with
  | Some r -> r := !r +. self
  | None -> Hashtbl.replace t.self_us layer (ref self));
  if t.n_events < t.cap then begin
    t.n_events <- t.n_events + 1;
    if t.n_events > 1 then Buffer.add_char t.events ',';
    Printf.bprintf t.events
      "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,%s}"
      name layer
      (Int64.to_float (Int64.sub start t.origin) /. 1e3)
      dur
      (Printf.sprintf "\"args\":{\"op\":%d}" t.op)
  end

(* [span t name f] — run [f]; when tracing is on, record a span. *)
let span t name f =
  if not t.on then f ()
  else begin
    let child = ref 0.0 in
    t.stack <- child :: t.stack;
    let start = Common.now_ns () in
    let finish () =
      let dur = Common.us_since start in
      t.stack <- List.tl t.stack;
      (match t.stack with parent :: _ -> parent := !parent +. dur | [] -> ());
      record t name ~start ~dur ~self:(dur -. !child)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let p50 t name =
  match Hashtbl.find_opt t.durations name with Some s -> Stats.quantile s 0.5 | None -> 0.0

let mean t name =
  match Hashtbl.find_opt t.durations name with Some s -> Stats.mean s | None -> 0.0

let self_per_op t layer ops =
  match Hashtbl.find_opt t.self_us layer with
  | Some r -> Common.ratio !r (float_of_int ops)
  | None -> 0.0

(* Chrome trace JSON (loadable in Perfetto / chrome://tracing). *)
let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  Buffer.output_buffer oc t.events;
  output_string oc "],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
