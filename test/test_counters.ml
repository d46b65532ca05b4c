(* The paper's deterministic counters, pinned to exact totals.

   The rule-evaluation and mark-visit counts anchor §2.2's claims, and
   block reads plus per-relationship crossing counts anchor §2.3's.  A
   change to the store or engine representation must leave them
   bit-identical, so each test replays a fixed, seeded workload and
   compares against totals recorded before such a change. *)

module Db = Cactis.Db
module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Store = Cactis.Store
module Counters = Cactis_util.Counters
module Rng = Cactis_util.Rng
module Pager = Cactis_storage.Pager
module Disk = Cactis_storage.Disk
module Usage = Cactis_storage.Usage
module M = Cactis_apps.Milestone

(* The E13 plan: 25 layers of 20 milestones (generator seed 17), each
   depending on 1-2 milestones of the layer below, then 200 rounds of
   slip + ship-date poll, with a full report every tenth round. *)
let test_e13_engine_counters () =
  let layers = 25 and width = 20 and rounds = 200 in
  let m = M.create () in
  let rng = Rng.create 17 in
  let final = M.add m ~name:"ship" ~scheduled:(float_of_int (10 * layers)) ~local_work:1.0 in
  let prev = ref [] in
  for l = 1 to layers do
    let layer =
      List.init width (fun i ->
          M.add m
            ~name:(Printf.sprintf "t%d_%d" l i)
            ~scheduled:(float_of_int (10 * (layers - l)))
            ~local_work:(1.0 +. Rng.float rng 3.0))
    in
    (match !prev with
    | [] -> List.iter (fun id -> M.depends_on m final id) layer
    | above ->
      List.iter
        (fun upper ->
          for _ = 1 to 1 + Rng.int rng 2 do
            let lower = Rng.pick_list rng layer in
            if not (List.mem lower (Db.related (M.db m) upper "depends_on")) then
              M.depends_on m upper lower
          done)
        above);
    prev := layer
  done;
  let db = M.db m in
  let c = Db.counters db in
  let engine_counters () =
    List.map (fun k -> (k, Counters.get c k)) [ "rule_evals"; "mark_visits"; "mark_cutoffs" ]
  in
  ignore (M.expected m final);
  let warm = engine_counters () in
  let all = Array.of_list (Db.instances_of_type db "milestone") in
  for round = 1 to rounds do
    let victim = all.(Rng.int rng (Array.length all)) in
    M.slip m victim (Rng.float rng 2.0);
    ignore (M.expected m final);
    ignore (M.is_late m final);
    if round mod 10 = 0 then ignore (M.report m)
  done;
  let total = engine_counters () in
  Alcotest.(check (list (pair string int)))
    "engine counters"
    [ ("rule_evals", 38947); ("mark_visits", 49620); ("mark_cutoffs", 11675) ]
    total;
  (* The slip rounds alone are E13's incremental row. *)
  Alcotest.(check (list (pair string int)))
    "slip-round counters" [ ("rule_evals", 38641); ("mark_visits", 47904); ("mark_cutoffs", 9959) ]
    (List.map2 (fun (k, a) (_, b) -> (k, a - b)) total warm)

(* A 3,000-object OCB base (fanout 3, module locality 0.9, modules of
   64) on a real block file behind a 16-block pool, trained with 300
   Zipf-rooted depth-4 traversals and greedily re-clustered, then
   traversed 200 more times. *)
let test_ocb_storage_counters () =
  let objects = 3000 and fanout = 3 and module_size = 64 in
  let sch = Schema.create () in
  Schema.add_type sch "obj";
  Schema.declare_relationship sch ~from_type:"obj" ~rel:"refs" ~to_type:"obj" ~inverse:"rrefs"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"obj" (Rule.intrinsic "payload" (Value.Int 0));
  let path = Filename.temp_file "cactis_counters" ".blocks" in
  let db = Db.create ~block_capacity:8 ~buffer_capacity:16 ~disk_path:path sch in
  let pager = Store.pager (Db.store db) in
  Fun.protect
    ~finally:(fun () ->
      Pager.close pager;
      Sys.remove path)
    (fun () ->
      let rng = Rng.create 7 in
      let ids =
        Db.with_txn db (fun () ->
            Array.init objects (fun i ->
                let id = Db.create_instance db "obj" in
                Db.set db id "payload" (Value.Int i);
                id))
      in
      let perm = Array.init objects (fun k -> k) in
      Rng.shuffle rng perm;
      let inv = Array.make objects 0 in
      Array.iteri (fun pos k -> inv.(k) <- pos) perm;
      let pick j =
        if Rng.chance rng 0.9 then begin
          let base = inv.(j) / module_size * module_size in
          perm.(base + Rng.int rng (min module_size (objects - base)))
        end
        else Rng.int rng objects
      in
      Db.with_txn db (fun () ->
          for j = 0 to objects - 1 do
            let linked = ref [] in
            for _ = 1 to fanout do
              let other = pick j in
              if other <> j && not (List.mem other !linked) then begin
                Db.link db ~from_id:ids.(j) ~rel:"refs" ~to_id:ids.(other);
                linked := other :: !linked
              end
            done
          done);
      let rec traverse id d =
        ignore (Db.get db id "payload");
        if d > 0 then List.iter (fun r -> traverse r (d - 1)) (Db.related db id "refs")
      in
      let trng = Rng.create 2 in
      for _ = 1 to 300 do
        traverse ids.(Rng.zipf trng objects 1.1) 4
      done;
      ignore (Db.recluster db);
      for _ = 1 to 200 do
        traverse ids.(Rng.zipf trng objects 1.1) 4
      done;
      Alcotest.(check (pair int (list (pair string int))))
        "block reads, crossings per relationship"
        (42081, [ ("refs", 56354) ])
        (Disk.reads (Pager.disk pager), Usage.rel_totals (Store.usage (Db.store db))))

let () =
  Alcotest.run "cactis-counters"
    [
      ( "pinned",
        [
          Alcotest.test_case "E13 plan: rule evals, mark visits, cutoffs" `Quick
            test_e13_engine_counters;
          Alcotest.test_case "OCB base: block reads, crossing totals" `Quick
            test_ocb_storage_counters;
        ] );
    ]
