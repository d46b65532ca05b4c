module Int_tbl = Cactis_util.Int_tbl

type t = {
  mutable nodes_marked : int;
  mutable edges_walked : int;
  mutable cutoffs : int;
  mutable evals : int;
  evaluated : int Int_tbl.t;  (* packed key -> evals since last invalidation *)
  mutable max_evals : int;  (* high-water mark, survives re-marking *)
}

type snapshot = {
  p_nodes_marked : int;
  p_edges_walked : int;
  p_cutoffs : int;
  p_evals : int;
  p_distinct_evaluated : int;
  p_max_evals_per_attr : int;
  p_bound : int;
  p_work : int;
}

let create () =
  {
    nodes_marked = 0;
    edges_walked = 0;
    cutoffs = 0;
    evals = 0;
    evaluated = Int_tbl.create 64;
    max_evals = 0;
  }

let reset t =
  t.nodes_marked <- 0;
  t.edges_walked <- 0;
  t.cutoffs <- 0;
  t.evals <- 0;
  t.max_evals <- 0;
  Int_tbl.reset t.evaluated

let on_mark t ~key =
  t.nodes_marked <- t.nodes_marked + 1;
  (* Invalidation re-arms the slot: one more evaluation is legitimate. *)
  Int_tbl.remove t.evaluated key

let on_cutoff t = t.cutoffs <- t.cutoffs + 1
let on_edge t = t.edges_walked <- t.edges_walked + 1

let on_eval t ~key =
  t.evals <- t.evals + 1;
  let n = 1 + Option.value ~default:0 (Int_tbl.find_opt t.evaluated key) in
  Int_tbl.replace t.evaluated key n;
  if n > t.max_evals then t.max_evals <- n

let snapshot t =
  {
    p_nodes_marked = t.nodes_marked;
    p_edges_walked = t.edges_walked;
    p_cutoffs = t.cutoffs;
    p_evals = t.evals;
    p_distinct_evaluated = Int_tbl.length t.evaluated;
    p_max_evals_per_attr = t.max_evals;
    p_bound = t.nodes_marked + t.edges_walked;
    p_work = t.nodes_marked + t.cutoffs + t.evals;
  }

let at_most_once s = s.p_max_evals_per_attr <= 1

let work_ratio s =
  if s.p_bound = 0 then if s.p_work = 0 then 1.0 else Float.of_int s.p_work
  else Float.of_int s.p_work /. Float.of_int s.p_bound

let to_string s =
  Printf.sprintf
    "marked=%d edges=%d cutoffs=%d evals=%d (distinct=%d, max/attr=%d) work=%d bound=%d \
     ratio=%.2f at-most-once=%b"
    s.p_nodes_marked s.p_edges_walked s.p_cutoffs s.p_evals s.p_distinct_evaluated
    s.p_max_evals_per_attr s.p_work s.p_bound (work_ratio s) (at_most_once s)
