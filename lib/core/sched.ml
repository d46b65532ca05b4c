module Pqueue = Cactis_util.Pqueue
module Pager = Cactis_storage.Pager
module Int_tbl = Cactis_util.Int_tbl

type strategy =
  | Fifo
  | Cost_only
  | Greedy

type 'a entry = {
  payload : 'a;
  instance : int;
  mutable consumed : bool;
  mutable promoted : bool;  (* already moved to the high-priority queue *)
}

type 'a t = {
  strategy : strategy;
  store : Store.t;
  fifo : 'a entry Queue.t;
  high : 'a entry Queue.t;
  cost_heap : 'a entry Pqueue.t;
  by_block : 'a entry list ref Int_tbl.t;
  mutable count : int;  (* live (unconsumed) entries *)
}

let create strategy store =
  {
    strategy;
    store;
    fifo = Queue.create ();
    high = Queue.create ();
    cost_heap = Pqueue.create ();
    by_block = Int_tbl.create 64;
    count = 0;
  }

let schedule t ~instance ~cost payload =
  let entry = { payload; instance; consumed = false; promoted = false } in
  t.count <- t.count + 1;
  match t.strategy with
  | Fifo -> Queue.push entry t.fifo
  | Cost_only -> Pqueue.push t.cost_heap cost entry
  | Greedy ->
    if Store.resident t.store instance then begin
      entry.promoted <- true;
      Queue.push entry t.high
    end
    else begin
      Pqueue.push t.cost_heap cost entry;
      match Pager.block_of (Store.pager t.store) instance with
      | None -> ()
      | Some block -> (
        match Int_tbl.find_opt t.by_block block with
        | Some r -> r := entry :: !r
        | None -> Int_tbl.add t.by_block block (ref [ entry ]))
    end

(* Called when the chunk we are about to hand out will load [block]: all
   other pending chunks on that block become free and jump the queue. *)
let promote_block t block =
  match Int_tbl.find_opt t.by_block block with
  | None -> ()
  | Some r ->
    List.iter
      (fun e ->
        if (not e.consumed) && not e.promoted then begin
          e.promoted <- true;
          Queue.push e t.high
        end)
      !r;
    Int_tbl.remove t.by_block block

let rec pop_queue q =
  match Queue.take_opt q with
  | None -> None
  | Some e -> if e.consumed then pop_queue q else Some e

let rec pop_heap t =
  match Pqueue.pop_opt t.cost_heap with
  | None -> None
  | Some e -> if e.consumed || e.promoted then pop_heap t else Some e

let take t e =
  e.consumed <- true;
  t.count <- t.count - 1;
  Some e.payload

let next t =
  match t.strategy with
  | Fifo -> (
    match pop_queue t.fifo with
    | Some e -> take t e
    | None -> None)
  | Cost_only -> (
    match pop_heap t with
    | Some e -> take t e
    | None -> None)
  | Greedy -> (
    match pop_queue t.high with
    | Some e -> take t e
    | None -> (
      match pop_heap t with
      | None -> None
      | Some e ->
        (* Running this chunk will fault its block in; everything else on
           that block is then free. *)
        (match Pager.block_of (Store.pager t.store) e.instance with
        | Some block -> promote_block t block
        | None -> ());
        take t e))

let pending t = t.count
let is_empty t = t.count = 0
