(* Growable sample buffers (microseconds) with exact order statistics:
   every timing the benchmark reports comes from raw per-op samples, not
   from bucketed histograms. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

let mean s =
  if s.n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to s.n - 1 do
      sum := !sum +. s.a.(i)
    done;
    !sum /. float_of_int s.n
  end

(* Linear interpolation between closest ranks; 0 when empty. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let sorted s =
  let b = Array.sub s.a 0 s.n in
  Array.sort Float.compare b;
  b

let quantile s q = quantile_sorted (sorted s) q
let median_of l = quantile_sorted (let a = Array.of_list l in Array.sort Float.compare a; a) 0.5

let merge x y =
  let s = create () in
  List.iter (fun src -> for i = 0 to src.n - 1 do add s src.a.(i) done) [ x; y ];
  s
