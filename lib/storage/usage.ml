module Symbol = Cactis_util.Symbol
module Int_tbl = Cactis_util.Int_tbl

type crossing = {
  from_instance : int;
  rel : string;
  to_instance : int;
}

(* Instance ids are small dense ints, so per-instance reference counts
   live in a flat array (grown on demand) rather than a hash table — the
   engine bumps one on every instance touch.

   Crossing counts live in one flat open-addressing table (linear
   probing) of three-int cells: the packed (lo id, relationship symbol),
   the hi id, and the count.  Crossings are canonicalized so that
   (a, r, b) and (b, r, a) share a cell: the paper accumulates a single
   usage count per relationship link regardless of traversal direction.
   Recording a crossing hashes two ints, reads about one cache line and
   allocates nothing. *)
type t = {
  mutable instance_counts : int array;
  mutable cells : int array;  (* 3 ints per cell; key [empty] = free *)
  mutable mask : int;  (* cell count - 1; the cell count is a power of two *)
  mutable used : int;  (* occupied cells, at most 3/4 of them *)
}

let empty = -1
let initial_cells = 64

let create () =
  {
    instance_counts = Array.make 64 0;
    cells = Array.make (3 * initial_cells) empty;
    mask = initial_cells - 1;
    used = 0;
  }

let ensure t id =
  let n = Array.length t.instance_counts in
  if id >= n then begin
    let bigger = Array.make (max (id + 1) (2 * n)) 0 in
    Array.blit t.instance_counts 0 bigger 0 n;
    t.instance_counts <- bigger
  end

let touch_instance t id =
  if id < Array.length t.instance_counts then
    t.instance_counts.(id) <- t.instance_counts.(id) + 1
  else begin
    ensure t id;
    t.instance_counts.(id) <- t.instance_counts.(id) + 1
  end

(* The cell holding (key, hi), or the free cell where it belongs. *)
let rec probe cells mask key hi i =
  let k = cells.(3 * i) in
  if k = empty || (k = key && cells.((3 * i) + 1) = hi) then i
  else probe cells mask key hi ((i + 1) land mask)

let home mask key hi = Int_tbl.hash (key lxor Int_tbl.hash hi) land mask
let find_cell cells mask key hi = probe cells mask key hi (home mask key hi)

(* Rebuild the table with [n] cells. *)
let rebuild t n =
  let old = t.cells in
  let cells = Array.make (3 * n) empty and mask = n - 1 in
  let used = ref 0 in
  for i = 0 to (Array.length old / 3) - 1 do
    let key = old.(3 * i) and hi = old.((3 * i) + 1) in
    if key <> empty then begin
      let j = find_cell cells mask key hi in
      cells.(3 * j) <- key;
      cells.((3 * j) + 1) <- hi;
      cells.((3 * j) + 2) <- old.((3 * i) + 2);
      incr used
    end
  done;
  t.cells <- cells;
  t.mask <- mask;
  t.used <- !used

let cross_sym t ~from_instance ~rel_sym ~to_instance =
  let lo = Int.min from_instance to_instance and hi = Int.max from_instance to_instance in
  let key = Symbol.pack lo rel_sym in
  let cells = t.cells in
  let i = find_cell cells t.mask key hi in
  if cells.(3 * i) = key then cells.((3 * i) + 2) <- cells.((3 * i) + 2) + 1
  else begin
    cells.(3 * i) <- key;
    cells.((3 * i) + 1) <- hi;
    cells.((3 * i) + 2) <- 1;
    t.used <- t.used + 1;
    let n = t.mask + 1 in
    if 4 * t.used > 3 * n then rebuild t (2 * n)
  end

let cross t ~from_instance ~rel ~to_instance =
  cross_sym t ~from_instance ~rel_sym:(Symbol.intern rel) ~to_instance

let instance_count t id =
  if id < Array.length t.instance_counts then t.instance_counts.(id) else 0

let crossing_count t ~from_instance ~rel ~to_instance =
  let lo = Int.min from_instance to_instance and hi = Int.max from_instance to_instance in
  let key = Symbol.pack lo (Symbol.intern rel) in
  let i = find_cell t.cells t.mask key hi in
  if t.cells.(3 * i) = key then t.cells.((3 * i) + 2) else 0

let instances t =
  let acc = ref [] in
  Array.iteri (fun id c -> if c > 0 then acc := (id, c) :: !acc) t.instance_counts;
  !acc

let fold_cells t f acc =
  let acc = ref acc in
  for i = 0 to t.mask do
    let key = t.cells.(3 * i) in
    if key <> empty then acc := f key t.cells.((3 * i) + 1) t.cells.((3 * i) + 2) !acc
  done;
  !acc

let crossings t =
  fold_cells t
    (fun key hi count acc ->
      ( {
          from_instance = Symbol.pack_id key;
          rel = Symbol.name (Symbol.pack_sym key);
          to_instance = hi;
        },
        count )
      :: acc)
    []

let rel_totals t =
  let totals = Int_tbl.create 16 in
  fold_cells t
    (fun key _ count () ->
      let sym = Symbol.pack_sym key in
      let prev = Option.value (Int_tbl.find_opt totals sym) ~default:0 in
      Int_tbl.replace totals sym (prev + count))
    ();
  Int_tbl.fold (fun sym c acc -> (Symbol.name sym, c) :: acc) totals []
  |> List.sort (fun (a, ca) (b, cb) -> match compare cb ca with 0 -> compare a b | c -> c)

(* Empty cell [i] by backward-shift deletion: walking the rest of the
   probe run, each entry whose home cell does not lie between the gap
   and the entry moves back into the gap, so the table needs no
   tombstones and every remaining entry stays reachable from its home
   cell. *)
let delete_cell t i =
  let cells = t.cells and mask = t.mask in
  let rec shift gap j =
    let key = cells.(3 * j) in
    if key = empty then gap
    else begin
      let h = home mask key cells.((3 * j) + 1) in
      (* The entry at [j] stays put iff its home lies cyclically in (gap, j]. *)
      if (j - h) land mask < (j - gap) land mask then shift gap ((j + 1) land mask)
      else begin
        Array.blit cells (3 * j) cells (3 * gap) 3;
        shift j ((j + 1) land mask)
      end
    end
  in
  let gap = shift i ((i + 1) land mask) in
  cells.(3 * gap) <- empty;
  t.used <- t.used - 1

(* A deletion at [i] only moves entries into cells at or after [i] within
   its probe run, so re-checking [i] before moving on visits every entry
   once, and entries that wrap to the front were already checked. *)
let forget_instance t id =
  if id < Array.length t.instance_counts then t.instance_counts.(id) <- 0;
  let i = ref 0 in
  while !i <= t.mask do
    let key = t.cells.(3 * !i) in
    if key <> empty && (Symbol.pack_id key = id || t.cells.((3 * !i) + 1) = id) then
      delete_cell t !i
    else incr i
  done

let reset t =
  Array.fill t.instance_counts 0 (Array.length t.instance_counts) 0;
  t.cells <- Array.make (3 * initial_cells) empty;
  t.mask <- initial_cells - 1;
  t.used <- 0
