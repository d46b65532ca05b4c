(* Core engine tests: schema construction, incremental evaluation,
   laziness, transactions, undo, constraints, subtypes. *)

module Value = Cactis.Value
module Schema = Cactis.Schema
module Rule = Cactis.Rule
module Db = Cactis.Db
module Engine = Cactis.Engine
module Errors = Cactis.Errors
module Store = Cactis.Store
module Counters = Cactis_util.Counters

let int n = Value.Int n
let bool b = Value.Bool b

let check_value = Alcotest.(check string)
let vstr v = Value.to_string v

(* A milestone-flavoured schema: nodes carry an intrinsic [local] work
   amount; derived [total] = local + max over dependencies' totals;
   derived [late] = total > 100. *)
let milestone_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "node";
  Schema.declare_relationship sch ~from_type:"node" ~rel:"deps" ~to_type:"node" ~inverse:"rdeps"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"node" (Rule.intrinsic "local" (int 1));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "total"
       (Rule.combine_self_rel "local" "deps" "total" ~f:(fun local totals ->
            Value.add local (Value.max_ ~default:(int 0) totals))));
  Schema.add_attr sch ~type_name:"node"
    (Rule.derived "late" (Rule.map1 "total" (fun v -> bool (Value.as_int v > 100))));
  sch

let chain db n =
  (* n nodes, each depending on the previous one; returns ids root..leaf *)
  let ids = List.init n (fun _ -> Db.create_instance db "node") in
  let rec wire = function
    | a :: (b :: _ as rest) ->
      Db.link db ~from_id:a ~rel:"deps" ~to_id:b;
      wire rest
    | [ _ ] | [] -> ()
  in
  wire ids;
  ids

let test_basic_derivation () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 5 in
  let head = List.hd ids in
  check_value "chain total" "5" (vstr (Db.get db head "total"));
  Db.set db (List.nth ids 4) "local" (int 200);
  check_value "after update" "204" (vstr (Db.get db head "total"));
  check_value "late flips" "true" (vstr (Db.get db head "late"))

let test_incremental_counts () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 50 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  let c = Db.counters db in
  let before = Counters.get c "rule_evals" in
  (* Change the leaf: every total along the chain is stale, but only the
     watched head chain should be re-evaluated, each node once. *)
  Db.set db (List.nth ids 49) "local" (int 7);
  ignore (Db.get db head "total");
  let evals = Counters.get c "rule_evals" - before in
  Alcotest.(check bool)
    (Printf.sprintf "each chain total evaluated at most once (got %d)" evals)
    true
    (evals <= 50)

let test_lazy_unimportant () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 20 in
  let leaf = List.nth ids 19 in
  let c = Db.counters db in
  let before = Counters.get c "rule_evals" in
  (* No one has queried anything: changing the leaf marks but must not
     evaluate. *)
  Db.set db leaf "local" (int 9);
  Alcotest.(check int) "no evaluation without importance" before (Counters.get c "rule_evals")

let test_redundant_change_cutoff () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 30 in
  let leaf = List.nth ids 29 in
  let c = Db.counters db in
  Db.set db leaf "local" (int 5);
  let marks1 = Counters.get c "mark_visits" in
  Db.set db leaf "local" (int 6);
  let marks2 = Counters.get c "mark_visits" - marks1 in
  Alcotest.(check bool)
    (Printf.sprintf "second change marks O(1) (got %d visits)" marks2)
    true (marks2 <= 2)

let test_oracle_agreement () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 10 in
  Db.set db (List.nth ids 3) "local" (int 40);
  Db.set db (List.nth ids 7) "local" (int 70);
  List.iter
    (fun id ->
      let got = Db.get db id "total" in
      let want = Engine.oracle_value (Db.engine db) id "total" in
      check_value (Printf.sprintf "node %d" id) (vstr want) (vstr got))
    ids

let test_undo_restores () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 5 in
  let head = List.hd ids in
  let v0 = vstr (Db.get db head "total") in
  Db.set db (List.nth ids 4) "local" (int 50);
  let v1 = vstr (Db.get db head "total") in
  Alcotest.(check bool) "value changed" true (v0 <> v1);
  Db.undo_last db;
  check_value "undo restores derived value" v0 (vstr (Db.get db head "total"));
  Db.redo db;
  check_value "redo reapplies" v1 (vstr (Db.get db head "total"))

let test_txn_abort () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  let v0 = vstr (Db.get db head "total") in
  Db.begin_txn db;
  Db.set db (List.nth ids 2) "local" (int 99);
  Db.abort db;
  check_value "abort restores" v0 (vstr (Db.get db head "total"))

let test_constraint_rollback () =
  let sch = milestone_schema () in
  Schema.add_attr sch ~type_name:"node"
    (Rule.constraint_attr "total_ok" ~message:"total exceeds 1000"
       (Rule.map1 "total" (fun v -> bool (Value.as_int v <= 1000))));
  let db = Db.create sch in
  let ids = chain db 3 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  (match Db.set db (List.nth ids 2) "local" (int 5000) with
  | () -> Alcotest.fail "expected constraint violation"
  | exception Errors.Constraint_violation { message; _ } ->
    Alcotest.(check string) "message" "total exceeds 1000" message);
  check_value "rolled back" "3" (vstr (Db.get db head "total"))

let test_constraint_recovery () =
  let sch = milestone_schema () in
  Schema.add_attr sch ~type_name:"node"
    (Rule.constraint_attr "local_ok" ~recovery:"clamp" ~message:"local too big"
       (Rule.map1 "local" (fun v -> bool (Value.as_int v <= 100))));
  let db = Db.create sch in
  Db.register_recovery db "clamp" (fun _store id -> [ (id, "local", int 100) ]);
  let ids = chain db 2 in
  Db.set db (List.hd ids) "local" (int 500);
  check_value "recovered" "100" (vstr (Db.get db (List.hd ids) "local"))

let cyclic_schema () =
  let sch = Schema.create () in
  Schema.add_type sch "n";
  Schema.declare_relationship sch ~from_type:"n" ~rel:"next" ~to_type:"n" ~inverse:"prev"
    ~card:Schema.Multi ~inverse_card:Schema.Multi;
  Schema.add_attr sch ~type_name:"n" (Rule.intrinsic "seed" (int 0));
  Schema.add_attr sch ~type_name:"n"
    (Rule.derived "v"
       (Rule.combine_self_rel "seed" "next" "v" ~f:(fun own vs -> Value.add own (Value.sum vs))));
  sch

let test_cycle_detected () =
  let db = Db.create (cyclic_schema ()) in
  let a = Db.create_instance db "n" in
  let b = Db.create_instance db "n" in
  Db.link db ~from_id:a ~rel:"next" ~to_id:b;
  Db.link db ~from_id:b ~rel:"next" ~to_id:a;
  match Db.get db a "v" with
  | _ -> Alcotest.fail "expected cycle"
  | exception Errors.Cycle _ -> ()

let test_long_cycle_detected () =
  (* A 5-node cycle through the chunked evaluator, and recovery: breaking
     the cycle makes the attribute evaluable again. *)
  let db = Db.create (cyclic_schema ()) in
  let ids = Array.init 5 (fun _ -> Db.create_instance db "n") in
  for i = 0 to 4 do
    Db.link db ~from_id:ids.(i) ~rel:"next" ~to_id:ids.((i + 1) mod 5)
  done;
  (match Db.get db ids.(0) "v" with
  | _ -> Alcotest.fail "expected cycle"
  | exception Errors.Cycle participants ->
    Alcotest.(check bool) "cycle names participants" true (List.length participants >= 2));
  (* Break the cycle: values become computable. *)
  Db.unlink db ~from_id:ids.(4) ~rel:"next" ~to_id:ids.(0);
  Db.set db ids.(4) "seed" (int 7);
  Alcotest.(check string) "evaluable after break" "7" (vstr (Db.get db ids.(0) "v"))

let test_cycle_at_commit () =
  (* A watched attribute made cyclic by a link inside a transaction: the
     commit propagation detects it and the transaction rolls back. *)
  let db = Db.create (cyclic_schema ()) in
  let a = Db.create_instance db "n" in
  let b = Db.create_instance db "n" in
  Db.link db ~from_id:a ~rel:"next" ~to_id:b;
  Db.watch db a "v";
  ignore (Db.get db a "v");
  Db.begin_txn db;
  Db.link db ~from_id:b ~rel:"next" ~to_id:a;
  (match Db.commit db with
  | () -> Alcotest.fail "expected cycle at commit"
  | exception Errors.Cycle _ -> ());
  (* The offending link was rolled back with the transaction. *)
  Alcotest.(check (list Alcotest.int)) "link rolled back" [] (Db.related db b "next");
  Alcotest.(check string) "still consistent" "0" (vstr (Db.get db a "v"))

let test_subtype_membership () =
  let sch = milestone_schema () in
  Schema.add_subtype sch
    {
      Schema.sub_name = "heavy";
      parent = "node";
      predicate = Rule.map1 "local" (fun v -> bool (Value.as_int v >= 10));
      extra_attrs = [ Rule.intrinsic "note" (Value.Str "") ];
    };
  let db = Db.create sch in
  let a = Db.create_instance db "node" in
  let b = Db.create_instance db "node" in
  Db.set db b "local" (int 50);
  Alcotest.(check bool) "a not heavy" false (Db.in_subtype db a "heavy");
  Alcotest.(check bool) "b heavy" true (Db.in_subtype db b "heavy");
  Alcotest.(check (list Alcotest.int)) "members" [ b ] (Db.subtype_members db "heavy");
  (* Dynamic migration. *)
  Db.set db a "local" (int 11);
  Alcotest.(check bool) "a becomes heavy" true (Db.in_subtype db a "heavy")

let test_dynamic_attr_extension () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  ignore (Db.get db head "total");
  (* very_late added while instances exist; existing tools untouched. *)
  Db.add_attr db ~type_name:"node"
    (Rule.derived "very_late" (Rule.map1 "total" (fun v -> bool (Value.as_int v > 200))));
  Alcotest.(check bool) "not very late" false (Value.as_bool (Db.get db head "very_late"));
  Db.set db (List.nth ids 2) "local" (int 500);
  Alcotest.(check bool) "very late now" true (Value.as_bool (Db.get db head "very_late"))

let test_delete_and_undo_delete () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  let leaf = List.nth ids 2 in
  Db.set db leaf "local" (int 10);
  check_value "pre" "12" (vstr (Db.get db head "total"));
  Db.delete_instance db leaf;
  check_value "after delete" "2" (vstr (Db.get db head "total"));
  Db.undo_last db;
  check_value "undo delete restores value and links" "12" (vstr (Db.get db head "total"))

(* The dense instance table grows past its initial capacity (256) and
   keeps its ascending views and live count exact through creates,
   deletes and the undo of deletes. *)
let test_instance_table_views () =
  let sch = milestone_schema () in
  Schema.add_type sch "tag";
  let db = Db.create sch in
  let store = Db.store db in
  let check_views msg expected =
    let of_type ty = List.filter (fun id -> Db.type_of db id = ty) expected in
    Alcotest.(check (list int)) (msg ^ ": ids") expected (Store.instance_ids store);
    Alcotest.(check int) (msg ^ ": count") (List.length expected) (Store.instance_count store);
    Alcotest.(check (list int)) (msg ^ ": nodes") (of_type "node") (Store.instances_of_type store "node");
    Alcotest.(check (list int)) (msg ^ ": tags") (of_type "tag") (Store.instances_of_type store "tag")
  in
  let ids =
    List.init 700 (fun i -> Db.create_instance db (if i mod 3 = 0 then "tag" else "node"))
  in
  check_views "created" ids;
  let doomed = List.filter (fun id -> id mod 7 = 0 || id > 650) ids in
  List.iter (Db.delete_instance db) doomed;
  let survivors = List.filter (fun id -> not (List.mem id doomed)) ids in
  check_views "deleted" survivors;
  Alcotest.(check bool) "deleted id is absent" false (Store.mem store (List.hd doomed));
  Alcotest.(check bool) "negative id is absent" false (Store.mem store (-1));
  Alcotest.(check bool) "id past the table is absent" false (Store.mem store 100_000);
  (* Undo the last 50 deletes: ids 651..700 come back. *)
  for _ = 1 to 50 do
    Db.undo_last db
  done;
  let restored = List.filter (fun id -> id > 650) ids in
  check_views "undone" (List.sort compare (survivors @ restored));
  let fresh = Db.create_instance db "node" in
  Alcotest.(check bool) "fresh id above every id" true (fresh > 700);
  check_views "fresh" (List.sort compare (fresh :: survivors @ restored))

let test_versions () =
  let db = Db.create (milestone_schema ()) in
  let ids = chain db 3 in
  let head = List.hd ids in
  Db.tag db "v0";
  Db.set db (List.nth ids 2) "local" (int 10);
  Db.tag db "v1";
  Db.set db (List.nth ids 2) "local" (int 20);
  Db.tag db "v2";
  Db.checkout db "v0";
  check_value "at v0" "3" (vstr (Db.get db head "total"));
  Db.checkout db "v2";
  check_value "at v2" "22" (vstr (Db.get db head "total"));
  Db.checkout db "v1";
  check_value "at v1" "12" (vstr (Db.get db head "total"))

let strategies =
  [ ("cactis", Engine.Cactis); ("eager", Engine.Eager_triggers);
    ("recompute-all", Engine.Recompute_all) ]

let test_strategies_agree () =
  List.iter
    (fun (_name, strategy) ->
      let db = Db.create ~strategy (milestone_schema ()) in
      let ids = chain db 8 in
      Db.set db (List.nth ids 5) "local" (int 30);
      List.iter
        (fun id ->
          let got = Db.get db id "total" in
          let want = Engine.oracle_value (Db.engine db) id "total" in
          check_value (Printf.sprintf "strategy agreement node %d" id) (vstr want) (vstr got))
        ids)
    strategies

(* [sum] over the kinds [add] combines: times total their day counts,
   strings concatenate, numbers keep their exact old results. *)
let test_sum_kinds () =
  let day d = Value.Time (Cactis_util.Vtime.of_days d) in
  let same what want got = Alcotest.(check bool) what true (Value.equal want got) in
  same "times" (day 7.5) (Value.sum [ day 3.; day 4.5 ]);
  same "one time" (day 2.) (Value.sum [ day 2. ]);
  same "strings" (Value.Str "abc") (Value.sum [ Value.Str "ab"; Value.Str "c" ]);
  same "empty" (int 0) (Value.sum []);
  same "ints" (int 6) (Value.sum [ int 1; int 2; int 3 ]);
  same "mixed numbers" (Value.Float 1.5) (Value.sum [ int 1; Value.Float 0.5 ]);
  same "negative zero still sums to zero" (Value.Float 0.) (Value.sum [ Value.Float (-0.) ]);
  Alcotest.(check bool) "sign of that zero" false
    (Float.sign_bit (Value.as_float (Value.sum [ Value.Float (-0.) ])))

let () =
  Alcotest.run "cactis-core"
    [
      ("value", [ Alcotest.test_case "sum over times and strings" `Quick test_sum_kinds ]);
      ( "engine",
        [
          Alcotest.test_case "basic derivation" `Quick test_basic_derivation;
          Alcotest.test_case "incremental eval counts" `Quick test_incremental_counts;
          Alcotest.test_case "laziness" `Quick test_lazy_unimportant;
          Alcotest.test_case "redundant change O(1)" `Quick test_redundant_change_cutoff;
          Alcotest.test_case "oracle agreement" `Quick test_oracle_agreement;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detected;
          Alcotest.test_case "long cycle + recovery" `Quick test_long_cycle_detected;
          Alcotest.test_case "cycle at commit rolls back" `Quick test_cycle_at_commit;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "undo/redo" `Quick test_undo_restores;
          Alcotest.test_case "abort" `Quick test_txn_abort;
          Alcotest.test_case "constraint rollback" `Quick test_constraint_rollback;
          Alcotest.test_case "constraint recovery" `Quick test_constraint_recovery;
          Alcotest.test_case "delete & undo" `Quick test_delete_and_undo_delete;
          Alcotest.test_case "instance table views" `Quick test_instance_table_views;
          Alcotest.test_case "versions" `Quick test_versions;
        ] );
      ( "schema",
        [
          Alcotest.test_case "subtype membership" `Quick test_subtype_membership;
          Alcotest.test_case "dynamic extension" `Quick test_dynamic_attr_extension;
        ] );
    ]
