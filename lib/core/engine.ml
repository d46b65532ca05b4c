module Counters = Cactis_util.Counters
module Decaying_avg = Cactis_util.Decaying_avg
module Symbol = Cactis_util.Symbol
module Int_tbl = Cactis_util.Int_tbl
module Usage = Cactis_storage.Usage
module Clock = Cactis_obs.Clock
module Trace = Cactis_obs.Trace
module Histogram = Cactis_obs.Histogram
module Profile = Cactis_obs.Profile

type strategy =
  | Cactis
  | Eager_triggers
  | Recompute_all

type recovery = Store.t -> int -> (int * string * Value.t) list

(* Hot-path tables key on [Symbol.pack instance_id attr_symbol] — a
   single immediate int, hashed by {!Int_tbl} — instead of
   [(int * string)] pairs; attribute and dependency resolution goes
   through the schema's compiled layouts (slot indexes), so
   steady-state marking/evaluation never hashes a string. *)
type t = {
  store : Store.t;
  mutable strategy : strategy;
  mutable sched : Sched.strategy;
  watched : unit Int_tbl.t;  (* packed (id, attr sym) *)
  pending_important : unit Int_tbl.t;  (* packed (id, attr sym) *)
  recoveries : (string, recovery) Hashtbl.t;
  mutable repair : (int -> string -> Value.t -> unit) option;
  mutable in_recovery : bool;
  (* Constraint attrs observed false during the current evaluation run. *)
  mutable violations : (int * int) list;  (* (id, attr sym) *)
  (* Cached counter cells (shared with the registry; reset-safe). *)
  c_rule_evals : int ref;
  c_mark_visits : int ref;
  c_mark_cutoffs : int ref;
  c_eval_procs : int ref;
  c_demand_procs : int ref;
  c_constraint_checks : int ref;
  c_intrinsic_sets : int ref;
  c_misses : int ref;
  (* Observability: shared tracer + per-phase latency histograms (always
     on) and an optional propagation profile (installed per commit by
     [Db.set_profiling]). *)
  obs : Cactis_obs.Ctx.t;
  h_mark_wave : Histogram.h;
  h_eval_wave : Histogram.h;
  h_propagate : Histogram.h;
  mutable prof : Profile.t option;
  (* Bounded fixed-point evaluation of convergent cycles ([Far86]):
     [None] = off (cycles raise), [Some n] = iterate up to [n] sweeps. *)
  mutable fixpoint : int option;
  c_fixpoint_runs : int ref;
  c_fixpoint_sweeps : int ref;
  h_fixpoint_iters : Histogram.h;
}

let create ?(strategy = Cactis) ?(sched = Sched.Greedy) store =
  let counters = Store.counters store in
  let obs = Store.obs store in
  let hists = obs.Cactis_obs.Ctx.hists in
  {
    obs;
    h_mark_wave = Histogram.cell hists "mark_wave";
    h_eval_wave = Histogram.cell hists "eval_wave";
    h_propagate = Histogram.cell hists "propagate";
    h_fixpoint_iters = Histogram.cell hists "fixpoint_iters";
    prof = None;
    fixpoint = None;
    store;
    strategy;
    sched;
    watched = Int_tbl.create 32;
    pending_important = Int_tbl.create 32;
    recoveries = Hashtbl.create 8;
    repair = None;
    in_recovery = false;
    violations = [];
    c_rule_evals = Counters.cell counters "rule_evals";
    c_mark_visits = Counters.cell counters "mark_visits";
    c_mark_cutoffs = Counters.cell counters "mark_cutoffs";
    c_eval_procs = Counters.cell counters "eval_procs";
    c_demand_procs = Counters.cell counters "demand_procs";
    c_constraint_checks = Counters.cell counters "constraint_checks";
    c_intrinsic_sets = Counters.cell counters "intrinsic_sets";
    c_misses = Counters.cell counters "block_misses";
    c_fixpoint_runs = Counters.cell counters "fixpoint_runs";
    c_fixpoint_sweeps = Counters.cell counters "fixpoint_sweeps";
  }

let store t = t.store
let strategy t = t.strategy
let set_strategy t s = t.strategy <- s
let sched_strategy t = t.sched
let set_sched_strategy t s = t.sched <- s
let set_repair t f = t.repair <- Some f
let register_recovery t name f = Hashtbl.replace t.recoveries name f
let set_profile t p = t.prof <- p
let profile t = t.prof

let set_fixed_point ?(max_iters = 1000) t on =
  if max_iters < 1 then Errors.type_error "set_fixed_point: max_iters must be positive";
  t.fixpoint <- (if on then Some max_iters else None)

let fixed_point t = t.fixpoint
let trace t = t.obs.Cactis_obs.Ctx.trace

let schema t = Store.schema t.store
let counters t = Store.counters t.store

let slot_info (inst : Instance.t) ix =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  lay.Schema.lay_slots.(ix)

let link_info (inst : Instance.t) ix =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  lay.Schema.lay_links.(ix)

let rule_of_si (inst : Instance.t) (si : Schema.slot_info) =
  match si.Schema.si_rule with
  | Some cr -> cr
  | None ->
    Errors.type_error "attribute %s of %s is intrinsic" si.Schema.si_name inst.Instance.type_name

(* ------------------------------------------------------------------ *)
(* Importance                                                          *)

let important_si t id (si : Schema.slot_info) =
  si.Schema.si_constrained || Int_tbl.mem t.watched (Symbol.pack id si.Schema.si_sym)

let watch t id a =
  Int_tbl.replace t.watched (Symbol.pack id (Symbol.intern a)) ();
  match Store.get_opt t.store id with
  | Some inst -> (
    match Instance.find_slot inst a with
    | Some ix ->
      if (Instance.slot_ix inst ix).Instance.state = Instance.Out_of_date then
        Int_tbl.replace t.pending_important (Symbol.pack id (Symbol.intern a)) ()
    | None -> ())
  | None -> ()

let unwatch t id a = Int_tbl.remove t.watched (Symbol.pack id (Symbol.intern a))
let is_watched t id a = Int_tbl.mem t.watched (Symbol.pack id (Symbol.intern a))

(* ------------------------------------------------------------------ *)
(* Dependency enumeration                                              *)

(* A mark/trigger target: attribute [t_ix]/[t_sym] of instance [t_id];
   [t_via] is the (instance, rel symbol) crossing used for usage
   statistics and cost tags. *)
type target = {
  t_id : int;
  t_ix : int;
  t_sym : int;
  t_via : (int * int) option;
}

(* Dependents of slot [ix] of [inst]: within the instance, and across
   each relationship to currently-linked neighbours — all resolved at
   schema-compile time to index/symbol tables. *)
let iter_dependents (inst : Instance.t) ix f =
  let lay = inst.Instance.layout in
  Schema.refresh_layout lay;
  let si = lay.Schema.lay_slots.(ix) in
  Array.iter
    (fun d ->
      let dsi = lay.Schema.lay_slots.(d) in
      f { t_id = inst.Instance.id; t_ix = d; t_sym = dsi.Schema.si_sym; t_via = None })
    si.Schema.si_self_deps;
  Array.iter
    (fun (xd : Schema.cross_dep) ->
      Instance.iter_linked inst xd.Schema.xd_link (fun j ->
          f
            {
              t_id = j;
              t_ix = xd.Schema.xd_slot;
              t_sym = xd.Schema.xd_sym;
              t_via = Some (inst.Instance.id, xd.Schema.xd_rel_sym);
            }))
    si.Schema.si_cross_deps

let dependents_ix inst ix =
  let acc = ref [] in
  iter_dependents inst ix (fun tgt -> acc := tgt :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Environment construction shared by all evaluators                   *)

(* The attribute actually transmitted when [name] is requested across the
   reader's relationship [r]: the target type may alias it (Figure 1's
   [consists_of exp_time = exp_compl]).  String-based variant kept for
   the oracle; the engine proper uses the compiled [r_slot]/[r_sym]. *)
let resolve_transmission t (inst : Instance.t) r name =
  let rd = Schema.rel (schema t) ~type_name:inst.Instance.type_name r in
  Schema.resolve_export (schema t) ~type_name:rd.Schema.target ~rel:rd.Schema.inverse name

(* [fetch_value j slot_ix] must return the (up-to-date) value of a
   possibly-derived slot of instance [j].  Reads are validated against
   the rule's declared sources so an undeclared read fails loudly
   instead of being silently non-incremental. *)
let build_env t (cr : Schema.compiled_rule) (inst : Instance.t) ~fetch_value =
  let srcs = cr.Schema.cr_sources in
  let n = Array.length srcs in
  let self_value b =
    let rec find i =
      if i >= n then
        Errors.type_error "rule on %s reads undeclared source self.%s" inst.Instance.type_name b
      else
        match srcs.(i) with
        | Schema.C_self { s_name; s_slot } when String.equal s_name b ->
          fetch_value inst.Instance.id s_slot
        | _ -> find (i + 1)
    in
    find 0
  in
  let related_values r name =
    let rec find i =
      if i >= n then
        Errors.type_error "rule on %s reads undeclared source %s.%s" inst.Instance.type_name r
          name
      else
        match srcs.(i) with
        | Schema.C_rel c when String.equal c.r_rel r && String.equal c.r_attr name ->
          let usage = Store.usage t.store in
          Instance.linked_ix inst c.r_link
          |> List.map (fun j ->
                 if c.r_slot < 0 then
                   Errors.unknown "type %s has no attribute %s" c.r_target (Symbol.name c.r_sym);
                 Usage.cross_sym usage ~from_instance:inst.Instance.id ~rel_sym:c.r_rel_sym
                   ~to_instance:j;
                 fetch_value j c.r_slot)
        | _ -> find (i + 1)
    in
    find 0
  in
  { Schema.self_value; related_values }

let record_constraint_check t (inst : Instance.t) (si : Schema.slot_info) v =
  if si.Schema.si_constrained then begin
    incr t.c_constraint_checks;
    match v with
    | Value.Bool false ->
      t.violations <- (inst.Instance.id, si.Schema.si_sym) :: t.violations
    | Value.Bool true -> ()
    | other ->
      Errors.type_error "constraint attribute %s.%s evaluated to non-boolean %s"
        inst.Instance.type_name si.Schema.si_name (Value.to_string other)
  end

(* ------------------------------------------------------------------ *)
(* Simple recursive evaluator (used by the baselines, by bootstrap     *)
(* paths, and — without caching — by the oracle)                       *)

let rec eval_rec t path id ix =
  let inst = Store.get t.store id in
  let s = Instance.slot_ix inst ix in
  let si = slot_info inst ix in
  match s.Instance.state with
  | Instance.Up_to_date -> s.Instance.value
  | Instance.In_progress ->
    raise (Errors.Cycle (List.rev ((id, si.Schema.si_name) :: path)))
  | Instance.Out_of_date ->
    if not si.Schema.si_derived then begin
      (* Intrinsic slots are always up to date; an out-of-date intrinsic
         can only be a slot created lazily after a schema extension —
         give it the schema default. *)
      (match si.Schema.si_def.Schema.kind with
      | Schema.Intrinsic default ->
        s.Instance.value <- default;
        s.Instance.state <- Instance.Up_to_date
      | Schema.Derived _ -> assert false);
      s.Instance.value
    end
    else begin
      s.Instance.state <- Instance.In_progress;
      Store.touch t.store id;
      let cr = rule_of_si inst si in
      let fetch_value j jx =
        let jinst = Store.get t.store j in
        if j <> id then Store.touch t.store j;
        let jsi = slot_info jinst jx in
        if jsi.Schema.si_derived then eval_rec t ((id, si.Schema.si_name) :: path) j jx
        else (Instance.slot_ix jinst jx).Instance.value
      in
      let env = build_env t cr inst ~fetch_value in
      let v =
        try cr.Schema.cr_rule.Schema.compute env
        with e ->
          s.Instance.state <- Instance.Out_of_date;
          raise e
      in
      incr t.c_rule_evals;
      (match t.prof with
      | Some p -> Profile.on_eval p ~key:(Symbol.pack id si.Schema.si_sym)
      | None -> ());
      s.Instance.value <- v;
      s.Instance.state <- Instance.Up_to_date;
      Store.notify_write t.store id si.Schema.si_name v;
      Int_tbl.remove t.pending_important (Symbol.pack id si.Schema.si_sym);
      record_constraint_check t inst si v;
      v
    end

(* ------------------------------------------------------------------ *)
(* Mark-out-of-date phase (chunked)                                    *)

let mark_cost t j = if Store.resident t.store j then 0.0 else 1.0

let run_marks t targets =
  if targets <> [] then begin
    let start_ns = Clock.now_ns () in
    let visits0 = !(t.c_mark_visits) and cutoffs0 = !(t.c_mark_cutoffs) in
    let sched = Sched.create t.sched t.store in
    let usage = Store.usage t.store in
    let schedule tgt =
      (match t.prof with Some p -> Profile.on_edge p | None -> ());
      (match tgt.t_via with
      | Some (i, rsym) -> Usage.cross_sym usage ~from_instance:i ~rel_sym:rsym ~to_instance:tgt.t_id
      | None -> ());
      Sched.schedule sched ~instance:tgt.t_id ~cost:(mark_cost t tgt.t_id) tgt
    in
    List.iter schedule targets;
    let rec loop () =
      match Sched.next sched with
      | None -> ()
      | Some tgt ->
        (match Store.get_opt t.store tgt.t_id with
        | None -> ()
        | Some inst ->
          Store.touch t.store tgt.t_id;
          incr t.c_mark_visits;
          let s = Instance.slot_ix inst tgt.t_ix in
          (match s.Instance.state with
          | Instance.Out_of_date ->
            (* Already out of date: the traversal is cut short here — this
               is the source of the O(1) repeated-update behaviour. *)
            incr t.c_mark_cutoffs;
            (match t.prof with Some p -> Profile.on_cutoff p | None -> ())
          | Instance.Up_to_date | Instance.In_progress ->
            s.Instance.state <- Instance.Out_of_date;
            (match t.prof with
            | Some p -> Profile.on_mark p ~key:(Symbol.pack tgt.t_id tgt.t_sym)
            | None -> ());
            Store.notify_mark t.store tgt.t_id (Symbol.name tgt.t_sym);
            if important_si t tgt.t_id (slot_info inst tgt.t_ix) then
              Int_tbl.replace t.pending_important (Symbol.pack tgt.t_id tgt.t_sym) ();
            iter_dependents inst tgt.t_ix schedule));
        loop ()
    in
    loop ();
    Histogram.observe t.h_mark_wave (Clock.elapsed_s ~since:start_ns);
    let tr = trace t in
    if Trace.enabled tr then
      Trace.complete tr ~cat:"engine"
        ~args:
          [
            ("targets", Trace.I (List.length targets));
            ("visits", Trace.I (!(t.c_mark_visits) - visits0));
            ("cutoffs", Trace.I (!(t.c_mark_cutoffs) - cutoffs0));
          ]
        ~start_ns "mark_wave"
  end

(* ------------------------------------------------------------------ *)
(* Demand-driven evaluation phase (chunked)                            *)

type frame = {
  f_id : int;
  f_ix : int;  (* slot index of the attribute being evaluated *)
  f_sym : int;
  mutable f_pending : int;
  mutable f_cost : int;  (* block misses charged to this subtree *)
  f_parent : frame option;
  f_via : (int * int) option;  (* (requesting instance, rel symbol) *)
}

type eval_proc =
  | Demand of {
      d_id : int;
      d_ix : int;
      d_parent : frame option;
      d_via : (int * int) option;
    }
  | Finish of frame

(* ------------------------------------------------------------------ *)
(* Bounded fixed-point evaluation of stuck (cyclic) frames ([Far86])   *)

(* When the demand scheduler drains with frames still open, the
   pending-wait graph contains at least one dependency cycle.  With
   fixed-point mode armed ([set_fixed_point]) and every attribute on a
   cycle carrying a bounded convergence shape ({!Schema.rule_shape}),
   the stuck slots are iterated Gauss-Seidel-style: cycle members with
   a lattice bottom are seeded there (Kleene iteration from bottom, the
   least-fixed-point semantics flow analyses want), the rest join the
   sweeps lazily, and contributions of slots not yet evaluated in the
   current run are dropped from aggregate reads.  Convergence is
   claimed only after an actually change-free sweep, so a mis-declared
   shape costs iterations (up to the cap) but never yields a wrong
   "stable" verdict — at worst the run falls back to [Errors.Cycle]. *)

type fp_entry = {
  e_key : int;  (* packed (id, attr sym) *)
  e_inst : Instance.t;
  e_ix : int;
  e_si : Schema.slot_info;
  mutable e_computed : bool;  (* evaluated at least once this run *)
}

let fp_bottom = function
  | Schema.Shape_bool -> Some (Value.Bool false)
  | Schema.Shape_lattice { bottom; _ } -> Some bottom
  | Schema.Shape_min | Schema.Shape_max | Schema.Shape_count | Schema.Shape_unbounded -> None

(* Longest strictly-increasing chain a slot of this shape can climb:
   the per-slot contribution to the static sweep bound.  Min/max chains
   are bounded by the number of distinct values in the cycle. *)
let fp_height ~n_cyclic = function
  | Schema.Shape_bool | Schema.Shape_count -> 1
  | Schema.Shape_lattice { height; _ } -> height
  | Schema.Shape_min | Schema.Shape_max -> n_cyclic
  | Schema.Shape_unbounded -> max_int

let solve_fixpoint t ~max_iters frames waiters =
  let start_ns = Clock.now_ns () in
  (* Resolve every stuck frame to a live slot; a frame whose instance
     vanished mid-run falls back to the cycle-error path. *)
  let entries =
    Int_tbl.fold
      (fun key (frame : frame) acc ->
        match acc with
        | None -> None
        | Some l -> (
          match Store.get_opt t.store frame.f_id with
          | None -> None
          | Some inst ->
            let si = slot_info inst frame.f_ix in
            Some
              ({ e_key = key; e_inst = inst; e_ix = frame.f_ix; e_si = si; e_computed = false }
              :: l)))
      frames (Some [])
  in
  match entries with
  | None -> false
  | Some entries ->
    (* Deterministic sweep order. *)
    let entries =
      List.sort
        (fun a b ->
          if a.e_inst.Instance.id <> b.e_inst.Instance.id then
            compare a.e_inst.Instance.id b.e_inst.Instance.id
          else String.compare a.e_si.Schema.si_name b.e_si.Schema.si_name)
        entries
    in
    let by_key = Int_tbl.create (2 * List.length entries) in
    List.iter (fun e -> Int_tbl.replace by_key e.e_key e) entries;
    (* Wait graph among stuck frames (waiter -> waited-on key): the
       frames on its cycles must carry bounded shapes; the acyclic cone
       stuck above them just re-evaluates until its inputs settle. *)
    let deps : int list Int_tbl.t = Int_tbl.create 16 in
    let add_dep w k =
      let prev = match Int_tbl.find_opt deps w with Some l -> l | None -> [] in
      Int_tbl.replace deps w (k :: prev)
    in
    Int_tbl.iter
      (fun key r ->
        if Int_tbl.mem by_key key then
          List.iter
            (fun (w : frame) ->
              let wkey = Symbol.pack w.f_id w.f_sym in
              if Int_tbl.mem by_key wkey then add_dep wkey key)
            !r)
      waiters;
    let on_cycle key =
      let seen = Int_tbl.create 8 in
      let rec go k =
        List.exists
          (fun k' ->
            k' = key
            || (not (Int_tbl.mem seen k')
               &&
               (Int_tbl.add seen k' ();
                go k')))
          (match Int_tbl.find_opt deps k with Some l -> l | None -> [])
      in
      go key
    in
    let cyclic : unit Int_tbl.t = Int_tbl.create 16 in
    List.iter (fun e -> if on_cycle e.e_key then Int_tbl.add cyclic e.e_key ()) entries;
    let shape_of e =
      Schema.rule_shape (schema t) ~type_name:e.e_inst.Instance.type_name
        ~attr:e.e_si.Schema.si_name
    in
    let admissible =
      List.for_all
        (fun e ->
          (not (Int_tbl.mem cyclic e.e_key))
          || match shape_of e with Some s -> Schema.shape_bounded s | None -> false)
        entries
    in
    if not admissible then false
    else begin
      let n_cyclic = Int_tbl.length cyclic in
      (* Static bound: one settling sweep + one per lattice step any
         cycle member can climb + one per stuck frame for the cone. *)
      let static_bound =
        List.fold_left
          (fun acc e ->
            if Int_tbl.mem cyclic e.e_key then
              acc + (match shape_of e with Some s -> fp_height ~n_cyclic s | None -> 0)
            else acc)
          (1 + List.length entries)
          entries
      in
      let cap = min max_iters static_bound in
      List.iter
        (fun e ->
          if Int_tbl.mem cyclic e.e_key then
            match shape_of e with
            | Some s -> (
              match fp_bottom s with
              | Some b ->
                (Instance.slot_ix e.e_inst e.e_ix).Instance.value <- b;
                e.e_computed <- true
              | None -> ())
            | None -> ())
        entries;
      (* [None] = the slot belongs to this run and has not been
         evaluated yet: its contribution is dropped from aggregates. *)
      let fetch_opt self_id j jx =
        let jinst = Store.get t.store j in
        if j <> self_id then Store.touch t.store j;
        let s = Instance.slot_ix jinst jx in
        let jsi = slot_info jinst jx in
        match Int_tbl.find_opt by_key (Symbol.pack j jsi.Schema.si_sym) with
        | Some e -> if e.e_computed then Some s.Instance.value else None
        | None ->
          (match s.Instance.state with
          | Instance.Up_to_date -> ()
          | Instance.Out_of_date | Instance.In_progress -> (
            match jsi.Schema.si_def.Schema.kind with
            | Schema.Intrinsic default ->
              s.Instance.value <- default;
              s.Instance.state <- Instance.Up_to_date
            | Schema.Derived _ -> ()));
          Some s.Instance.value
      in
      let env_for (cr : Schema.compiled_rule) (inst : Instance.t) =
        let srcs = cr.Schema.cr_sources in
        let n = Array.length srcs in
        let self_value b =
          let rec find i =
            if i >= n then
              Errors.type_error "rule on %s reads undeclared source self.%s"
                inst.Instance.type_name b
            else
              match srcs.(i) with
              | Schema.C_self { s_name; s_slot } when String.equal s_name b -> (
                match fetch_opt inst.Instance.id inst.Instance.id s_slot with
                | Some v -> v
                | None -> (Instance.slot_ix inst s_slot).Instance.value)
              | _ -> find (i + 1)
          in
          find 0
        in
        let related_values r name =
          let rec find i =
            if i >= n then
              Errors.type_error "rule on %s reads undeclared source %s.%s"
                inst.Instance.type_name r name
            else
              match srcs.(i) with
              | Schema.C_rel c when String.equal c.r_rel r && String.equal c.r_attr name ->
                let usage = Store.usage t.store in
                Instance.linked_ix inst c.r_link
                |> List.filter_map (fun j ->
                       if c.r_slot < 0 then
                         Errors.unknown "type %s has no attribute %s" c.r_target
                           (Symbol.name c.r_sym);
                       Usage.cross_sym usage ~from_instance:inst.Instance.id
                         ~rel_sym:c.r_rel_sym ~to_instance:j;
                       fetch_opt inst.Instance.id j c.r_slot)
              | _ -> find (i + 1)
          in
          find 0
        in
        { Schema.self_value; related_values }
      in
      let sweeps = ref 0 in
      let stable = ref false in
      let converged =
        while (not !stable) && !sweeps < cap do
          incr sweeps;
          let changed = ref false in
          List.iter
            (fun e ->
              Store.touch t.store e.e_inst.Instance.id;
              let cr = rule_of_si e.e_inst e.e_si in
              match cr.Schema.cr_rule.Schema.compute (env_for cr e.e_inst) with
              | v ->
                incr t.c_rule_evals;
                let s = Instance.slot_ix e.e_inst e.e_ix in
                if (not e.e_computed) || not (Value.equal v s.Instance.value) then
                  changed := true;
                e.e_computed <- true;
                s.Instance.value <- v
              | exception _ ->
                (* A rule crashing this sweep (e.g. a virgin Null read of a
                   cone slot whose inputs have not settled yet) is not
                   fatal: the entry stays uncomputed and retries next
                   sweep.  If it never succeeds, the cap expires and the
                   caller reports a plain dependency cycle. *)
                incr t.c_rule_evals)
            entries;
          if (not !changed) && List.for_all (fun e -> e.e_computed) entries then
            stable := true
        done;
        !stable
      in
      if converged then begin
        incr t.c_fixpoint_runs;
        t.c_fixpoint_sweeps := !(t.c_fixpoint_sweeps) + !sweeps;
        Histogram.observe t.h_fixpoint_iters (float_of_int !sweeps);
        List.iter
          (fun e ->
            let s = Instance.slot_ix e.e_inst e.e_ix in
            s.Instance.state <- Instance.Up_to_date;
            Store.notify_write t.store e.e_inst.Instance.id e.e_si.Schema.si_name
              s.Instance.value;
            Int_tbl.remove t.pending_important e.e_key;
            record_constraint_check t e.e_inst e.e_si s.Instance.value)
          entries;
        let tr = t.obs.Cactis_obs.Ctx.trace in
        if Trace.enabled tr then
          Trace.complete tr ~cat:"engine"
            ~args:
              [
                ("frames", Trace.I (List.length entries));
                ("cyclic", Trace.I n_cyclic);
                ("sweeps", Trace.I !sweeps);
              ]
            ~start_ns "fixpoint"
      end;
      converged
    end

let run_eval_inner t roots =
  let sched = Sched.create t.sched t.store in
  let frames : frame Int_tbl.t = Int_tbl.create 32 in
  let waiters : frame list ref Int_tbl.t = Int_tbl.create 32 in
  let misses () = !(t.c_misses) in
  let demand_cost via j =
    if Store.resident t.store j then 0.0
    else
      match via with
      | Some (i, rsym) -> Decaying_avg.value (Store.link_tag_sym t.store i rsym)
      | None -> 1.0
  in
  let schedule_demand ~parent ~via j jx =
    (match parent with Some p -> p.f_pending <- p.f_pending + 1 | None -> ());
    Sched.schedule sched ~instance:j ~cost:(demand_cost via j)
      (Demand { d_id = j; d_ix = jx; d_parent = parent; d_via = via })
  in
  let add_waiter key frame =
    match Int_tbl.find_opt waiters key with
    | Some r -> r := frame :: !r
    | None -> Int_tbl.add waiters key (ref [ frame ])
  in
  let schedule_finish frame = Sched.schedule sched ~instance:frame.f_id ~cost:0.0 (Finish frame) in
  let notify frame =
    frame.f_pending <- frame.f_pending - 1;
    if frame.f_pending = 0 then schedule_finish frame
  in
  let notify_waiters key =
    match Int_tbl.find_opt waiters key with
    | None -> ()
    | Some r ->
      let ws = !r in
      Int_tbl.remove waiters key;
      List.iter notify ws
  in
  (* Enumerate the out-of-date derived sources of the frame's attribute,
     demanding each. *)
  let open_frame frame (inst : Instance.t) =
    let cr = rule_of_si inst (slot_info inst frame.f_ix) in
    let demand_source j jx via =
      let jinst = Store.get t.store j in
      let jsi = slot_info jinst jx in
      if jsi.Schema.si_derived then begin
        let s = Instance.slot_ix jinst jx in
        match s.Instance.state with
        | Instance.Up_to_date -> ()
        | Instance.Out_of_date | Instance.In_progress ->
          schedule_demand ~parent:(Some frame) ~via j jx
      end
    in
    Array.iter
      (function
        | Schema.C_self { s_slot; _ } -> demand_source frame.f_id s_slot None
        | Schema.C_rel c ->
          Instance.iter_linked inst c.r_link (fun j ->
              if c.r_slot < 0 then
                Errors.unknown "type %s has no attribute %s" c.r_target (Symbol.name c.r_sym);
              demand_source j c.r_slot (Some (frame.f_id, c.r_rel_sym))))
      cr.Schema.cr_sources
  in
  let finish frame =
    let key = Symbol.pack frame.f_id frame.f_sym in
    match Store.get_opt t.store frame.f_id with
    | None ->
      Int_tbl.remove frames key;
      notify_waiters key
    | Some inst ->
      let before = misses () in
      Store.touch t.store frame.f_id;
      let si = slot_info inst frame.f_ix in
      let cr = rule_of_si inst si in
      let fetch_value j jx =
        let jinst = Store.get t.store j in
        if j <> frame.f_id then Store.touch t.store j;
        let s = Instance.slot_ix jinst jx in
        (match s.Instance.state with
        | Instance.Up_to_date -> ()
        | Instance.Out_of_date | Instance.In_progress -> (
          (* All derived sources were demanded and completed before this
             Finish was scheduled; an out-of-date source here is a
             lazily-created intrinsic slot (schema extension). *)
          match (slot_info jinst jx).Schema.si_def.Schema.kind with
          | Schema.Intrinsic default ->
            s.Instance.value <- default;
            s.Instance.state <- Instance.Up_to_date
          | Schema.Derived _ -> assert false));
        s.Instance.value
      in
      let env = build_env t cr inst ~fetch_value in
      let v = cr.Schema.cr_rule.Schema.compute env in
      incr t.c_rule_evals;
      (match t.prof with Some p -> Profile.on_eval p ~key | None -> ());
      let s = Instance.slot_ix inst frame.f_ix in
      s.Instance.value <- v;
      s.Instance.state <- Instance.Up_to_date;
      Store.notify_write t.store frame.f_id si.Schema.si_name v;
      Int_tbl.remove t.pending_important key;
      Int_tbl.remove frames key;
      record_constraint_check t inst si v;
      frame.f_cost <- frame.f_cost + (misses () - before);
      (* Self-adaptive statistics: the link that requested this value
         learns what the request actually cost (§2.3). *)
      (match frame.f_via with
      | Some (i, rsym) ->
        if Store.mem t.store i then
          Decaying_avg.observe (Store.link_tag_sym t.store i rsym) (float_of_int frame.f_cost)
      | None -> ());
      (match frame.f_parent with Some p -> p.f_cost <- p.f_cost + frame.f_cost | None -> ());
      notify_waiters key
  in
  let run_demand d_id d_ix d_parent d_via =
    match Store.get_opt t.store d_id with
    | None -> (match d_parent with Some p -> notify p | None -> ())
    | Some inst -> (
      let s = Instance.slot_ix inst d_ix in
      let si = slot_info inst d_ix in
      let key = Symbol.pack d_id si.Schema.si_sym in
      match s.Instance.state with
      | Instance.Up_to_date -> ( match d_parent with Some p -> notify p | None -> ())
      | Instance.In_progress -> (
        (* A frame already exists; wait for it. *)
        match d_parent with
        | Some p -> add_waiter key p
        | None -> ())
      | Instance.Out_of_date ->
        if not si.Schema.si_derived then begin
          (match si.Schema.si_def.Schema.kind with
          | Schema.Intrinsic default ->
            s.Instance.value <- default;
            s.Instance.state <- Instance.Up_to_date
          | Schema.Derived _ -> assert false);
          match d_parent with Some p -> notify p | None -> ()
        end
        else begin
          let before = misses () in
          Store.touch t.store d_id;
          incr t.c_demand_procs;
          let frame =
            {
              f_id = d_id;
              f_ix = d_ix;
              f_sym = si.Schema.si_sym;
              f_pending = 0;
              f_cost = 0;
              f_parent = d_parent;
              f_via = d_via;
            }
          in
          Int_tbl.add frames key frame;
          (* The parent's pending (incremented at demand time) is settled
             by the waiter notification when this frame finishes. *)
          (match d_parent with Some p -> add_waiter key p | None -> ());
          s.Instance.state <- Instance.In_progress;
          open_frame frame inst;
          frame.f_cost <- frame.f_cost + (misses () - before);
          if frame.f_pending = 0 then schedule_finish frame
        end)
  in
  List.iter (fun (id, ix) -> schedule_demand ~parent:None ~via:None id ix) roots;
  let rec loop () =
    match Sched.next sched with
    | None -> ()
    | Some (Demand { d_id; d_ix; d_parent; d_via }) ->
      incr t.c_eval_procs;
      run_demand d_id d_ix d_parent d_via;
      loop ()
    | Some (Finish frame) ->
      incr t.c_eval_procs;
      finish frame;
      loop ()
  in
  let restore_open_frames () =
    (* A rule raising mid-run must not leave slots In_progress. *)
    Int_tbl.iter
      (fun _ frame ->
        match Store.get_opt t.store frame.f_id with
        | Some inst ->
          let s = Instance.slot_ix inst frame.f_ix in
          if s.Instance.state = Instance.In_progress then s.Instance.state <- Instance.Out_of_date
        | None -> ())
      frames
  in
  (try loop ()
   with e ->
     restore_open_frames ();
     raise e);
  (* Any frame still pending after the scheduler drained is waiting on a
     value that can never arrive: a dependency cycle. *)
  let stuck = Int_tbl.fold (fun _ frame acc -> frame :: acc) frames [] in
  if stuck <> [] then begin
    let solved =
      match t.fixpoint with
      | Some max_iters -> solve_fixpoint t ~max_iters frames waiters
      | None -> false
    in
    if not solved then begin
      (* Restore the stuck slots so the database is not left in
         progress.  (A failed fixed-point attempt may have clobbered
         values with partial iterates; Out_of_date makes them dead.) *)
      List.iter
        (fun frame ->
          match Store.get_opt t.store frame.f_id with
          | Some inst ->
            (Instance.slot_ix inst frame.f_ix).Instance.state <- Instance.Out_of_date
          | None -> ())
        stuck;
      raise
        (Errors.Cycle
           (List.sort compare (List.map (fun f -> (f.f_id, Symbol.name f.f_sym)) stuck)))
    end
  end

(* Timed wrapper around one demand-evaluation wave.  The histogram is
   always fed; the (richer) trace span only when the tracer is on.  The
   observation happens even when a rule raises, so failed waves still
   show up in the latency profile. *)
let run_eval t roots =
  if roots <> [] then begin
    let start_ns = Clock.now_ns () in
    let evals0 = !(t.c_rule_evals) in
    let observe () =
      Histogram.observe t.h_eval_wave (Clock.elapsed_s ~since:start_ns);
      let tr = t.obs.Cactis_obs.Ctx.trace in
      if Trace.enabled tr then
        Trace.complete tr ~cat:"engine"
          ~args:
            [
              ("roots", Trace.I (List.length roots));
              ("evals", Trace.I (!(t.c_rule_evals) - evals0));
            ]
          ~start_ns "eval_wave"
    in
    match run_eval_inner t roots with
    | () -> observe ()
    | exception e ->
      observe ();
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Constraint-violation handling                                       *)

let rec handle_violations t =
  let vs = List.rev t.violations in
  t.violations <- [];
  match vs with
  | [] -> ()
  | _ ->
    List.iter
      (fun (id, sym) ->
        match Store.get_opt t.store id with
        | None -> ()
        | Some inst -> (
          let ix =
            match Instance.find_slot_sym inst sym with Some ix -> ix | None -> assert false
          in
          let s = Instance.slot_ix inst ix in
          let si = slot_info inst ix in
          (* A recovery applied for an earlier violation in this batch may
             already have repaired (re-marked) this one. *)
          let still_false =
            s.Instance.state = Instance.Up_to_date && Value.equal s.Instance.value (Value.Bool false)
          in
          if still_false then
            let spec =
              match si.Schema.si_def.Schema.constraint_ with
              | Some spec -> spec
              | None -> assert false
            in
            let fail () =
              raise
                (Errors.Constraint_violation
                   { instance = id; attr = si.Schema.si_name; message = spec.Schema.message })
            in
            match spec.Schema.recovery with
            | None -> fail ()
            | Some name -> (
              if t.in_recovery then fail ();
              match (Hashtbl.find_opt t.recoveries name, t.repair) with
              | Some action, Some apply ->
                t.in_recovery <- true;
                let tr = t.obs.Cactis_obs.Ctx.trace in
                let start_ns = Clock.now_ns () in
                Fun.protect
                  ~finally:(fun () ->
                    t.in_recovery <- false;
                    if Trace.enabled tr then
                      Trace.complete tr ~cat:"engine"
                        ~args:[ ("instance", Trace.I id); ("action", Trace.S name) ]
                        ~start_ns "recovery")
                  (fun () ->
                    Counters.incr (counters t) "recoveries_run";
                    List.iter (fun (j, b, v) -> apply j b v) (action t.store id);
                    (* Re-evaluate the constraint after the repair. *)
                    let v = eval_rec t [] id ix in
                    handle_violations t;
                    if Value.equal v (Value.Bool false) then fail ())
              | _ -> fail ())))
      vs

(* ------------------------------------------------------------------ *)
(* Strategy dispatch for change notification                           *)

let invalidate_all t =
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst ->
        let lay = inst.Instance.layout in
        Schema.refresh_layout lay;
        Array.iteri
          (fun ix (si : Schema.slot_info) ->
            if si.Schema.si_derived then begin
              (Instance.slot_ix inst ix).Instance.state <- Instance.Out_of_date;
              Store.notify_mark t.store id si.Schema.si_name;
              if important_si t id si then
                Int_tbl.replace t.pending_important (Symbol.pack id si.Schema.si_sym) ()
            end)
          lay.Schema.lay_slots)
    (Store.instance_ids t.store)

let eval_everything t =
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst ->
        let lay = inst.Instance.layout in
        Schema.refresh_layout lay;
        Array.iteri
          (fun ix (si : Schema.slot_info) ->
            if si.Schema.si_derived then ignore (eval_rec t [] id ix))
          lay.Schema.lay_slots)
    (Store.instance_ids t.store);
  handle_violations t

(* The naive trigger mechanism: each change immediately and recursively
   recomputes every dependent, with no out-of-date marking, in a fixed
   depth-first order.  On diamond-shaped dependency graphs this
   recomputes an exponential number of values — the behaviour the paper's
   algorithm exists to avoid. *)
let rec fire_trigger t tgt =
  match Store.get_opt t.store tgt.t_id with
  | None -> ()
  | Some inst ->
    Store.touch t.store tgt.t_id;
    let si = slot_info inst tgt.t_ix in
    let cr = rule_of_si inst si in
    let fetch_value k kx =
      let kinst = Store.get t.store k in
      if k <> tgt.t_id then Store.touch t.store k;
      let ksi = slot_info kinst kx in
      let s = Instance.slot_ix kinst kx in
      if ksi.Schema.si_derived && s.Instance.state <> Instance.Up_to_date then eval_rec t [] k kx
      else s.Instance.value
    in
    let env = build_env t cr inst ~fetch_value in
    let v = cr.Schema.cr_rule.Schema.compute env in
    incr t.c_rule_evals;
    (match t.prof with
    | Some p -> Profile.on_eval p ~key:(Symbol.pack tgt.t_id si.Schema.si_sym)
    | None -> ());
    let s = Instance.slot_ix inst tgt.t_ix in
    s.Instance.value <- v;
    s.Instance.state <- Instance.Up_to_date;
    Store.notify_write t.store tgt.t_id si.Schema.si_name v;
    record_constraint_check t inst si v;
    List.iter (fire_trigger t) (dependents_ix inst tgt.t_ix)

let after_change t targets =
  match t.strategy with
  | Cactis -> run_marks t targets
  | Eager_triggers ->
    List.iter (fire_trigger t) targets;
    handle_violations t
  | Recompute_all ->
    invalidate_all t;
    eval_everything t

let after_intrinsic_set t id a =
  incr t.c_intrinsic_sets;
  let targets =
    match Store.get_opt t.store id with
    | None -> []
    | Some inst -> (
      match Instance.find_slot inst a with
      | Some ix -> dependents_ix inst ix
      | None -> [])
  in
  after_change t targets

let after_link_change t ~from_id ~rel ~to_id =
  let side id r =
    match Store.get_opt t.store id with
    | None -> []
    | Some inst -> (
      match Instance.find_link inst r with
      | None -> []
      | Some lx ->
        let li = link_info inst lx in
        Array.to_list li.Schema.li_rel_deps
        |> List.map (fun d ->
               let si = slot_info inst d in
               { t_id = id; t_ix = d; t_sym = si.Schema.si_sym; t_via = None }))
  in
  let inverse_of (inst : Instance.t) r =
    match Instance.find_link inst r with
    | Some lx -> (link_info inst lx).Schema.li_def.Schema.inverse
    | None -> Errors.unknown "type %s has no relationship %s" inst.Instance.type_name r
  in
  let inv =
    match Store.get_opt t.store from_id with
    | Some inst -> inverse_of inst rel
    | None -> (
      match Store.get_opt t.store to_id with
      | Some jinst ->
        (* from side gone (undo paths); find inverse from the target. *)
        inverse_of jinst rel
      | None -> rel)
  in
  after_change t (side from_id rel @ side to_id inv)

let on_new_instance t id =
  match Store.get_opt t.store id with
  | None -> ()
  | Some inst -> (
    let lay = inst.Instance.layout in
    Schema.refresh_layout lay;
    match t.strategy with
    | Cactis ->
      (* Creation "does not affect attribute evaluation until
         relationships are established" — but the new instance's own
         constraints must hold at commit. *)
      Array.iter
        (fun (si : Schema.slot_info) ->
          if si.Schema.si_constrained then
            Int_tbl.replace t.pending_important (Symbol.pack id si.Schema.si_sym) ())
        lay.Schema.lay_slots
    | Eager_triggers | Recompute_all ->
      Array.iteri
        (fun ix (si : Schema.slot_info) ->
          if si.Schema.si_derived then ignore (eval_rec t [] id ix))
        lay.Schema.lay_slots;
      handle_violations t)

let on_delete_instance t id =
  let purge tbl =
    let stale =
      Int_tbl.fold (fun k _ acc -> if Symbol.pack_id k = id then k :: acc else acc) tbl []
    in
    List.iter (Int_tbl.remove tbl) stale
  in
  purge t.watched;
  purge t.pending_important

let after_attr_added t ~type_name ~attr =
  let def = Schema.attr (schema t) ~type_name attr in
  List.iter
    (fun id ->
      match Store.get_opt t.store id with
      | None -> ()
      | Some inst -> (
        match Instance.find_slot inst attr with
        | None -> ()
        | Some ix ->
          let s = Instance.slot_ix inst ix in
          (match def.Schema.kind with
          | Schema.Intrinsic default ->
            s.Instance.value <- default;
            s.Instance.state <- Instance.Up_to_date
          | Schema.Derived _ ->
            s.Instance.state <- Instance.Out_of_date;
            if important_si t id (slot_info inst ix) then
              Int_tbl.replace t.pending_important (Symbol.pack id (Symbol.intern attr)) ())))
    (Store.instances_of_type t.store type_name)

let after_attr_retracted t ~type_name ~attr =
  (* Mirror of [after_attr_added] for schema-delta undo: drop the
     watch/pending bookkeeping keyed on the retracted attribute so a
     later propagate never chases a slot the layout no longer compiles.
     The physical slot value needs no repair — undo restored it to the
     default before the retraction (deltas replay in reverse), and a
     re-declaration (redo) re-initializes it through
     [after_attr_added]. *)
  let sym = Symbol.intern attr in
  List.iter
    (fun id ->
      let key = Symbol.pack id sym in
      Int_tbl.remove t.watched key;
      Int_tbl.remove t.pending_important key)
    (Store.instances_of_type t.store type_name)

(* ------------------------------------------------------------------ *)
(* Reading and propagation                                             *)

let peek t id a = (Store.read_slot t.store id a).Instance.value

let is_out_of_date t id a =
  let inst = Store.get t.store id in
  match Instance.slot_opt inst a with
  | Some s -> s.Instance.state <> Instance.Up_to_date
  | None -> true

let read t ?(watch = true) id a =
  let inst = Store.get t.store id in
  match Instance.find_slot inst a with
  | None -> Errors.unknown "type %s has no attribute %s" inst.Instance.type_name a
  | Some ix ->
    Store.touch t.store id;
    let si = slot_info inst ix in
    if not si.Schema.si_derived then (Instance.slot_ix inst ix).Instance.value
    else begin
      (* "If the user explicitly requests the value of attributes (i.e.
         makes a query) they become important" (§2.2). *)
      if watch then Int_tbl.replace t.watched (Symbol.pack id si.Schema.si_sym) ();
      let s = Instance.slot_ix inst ix in
      (match s.Instance.state with
      | Instance.Up_to_date -> ()
      | Instance.Out_of_date | Instance.In_progress -> (
        match t.strategy with
        | Cactis ->
          run_eval t [ (id, ix) ];
          handle_violations t
        | Eager_triggers | Recompute_all ->
          ignore (eval_rec t [] id ix);
          handle_violations t));
      (Instance.slot_ix inst ix).Instance.value
    end

(* Pending roots resolved back to (id, name, slot ix); sorted by
   (id, name) to preserve the evaluation order of the string-keyed
   implementation (deterministic counters). *)
let pending_roots t =
  let roots =
    Int_tbl.fold
      (fun key () acc ->
        let id = Symbol.pack_id key and sym = Symbol.pack_sym key in
        match Store.get_opt t.store id with
        | None -> acc
        | Some inst -> (
          match Instance.find_slot_sym inst sym with
          | None -> acc
          | Some ix ->
            let si = slot_info inst ix in
            if si.Schema.si_derived then (id, si.Schema.si_name, ix) :: acc else acc))
      t.pending_important []
  in
  List.sort
    (fun (i1, n1, _) (i2, n2, _) -> if i1 <> i2 then compare i1 i2 else String.compare n1 n2)
    roots

let propagate t =
  match t.strategy with
  | Cactis ->
    let roots = pending_roots t in
    Int_tbl.reset t.pending_important;
    if roots <> [] then begin
      let start_ns = Clock.now_ns () in
      let observe () =
        Histogram.observe t.h_propagate (Clock.elapsed_s ~since:start_ns);
        let tr = t.obs.Cactis_obs.Ctx.trace in
        if Trace.enabled tr then
          Trace.complete tr ~cat:"engine"
            ~args:[ ("roots", Trace.I (List.length roots)) ]
            ~start_ns "propagate"
      in
      (match
         run_eval t (List.map (fun (id, _, ix) -> (id, ix)) roots);
         handle_violations t
       with
      | () -> observe ()
      | exception e ->
        observe ();
        raise e)
    end
  | Eager_triggers | Recompute_all ->
    let roots = pending_roots t in
    Int_tbl.reset t.pending_important;
    List.iter (fun (id, _, ix) -> ignore (eval_rec t [] id ix)) roots;
    handle_violations t

let pending_important_count t = Int_tbl.length t.pending_important

(* ------------------------------------------------------------------ *)
(* Oracle: reference semantics with no caching and no I/O accounting   *)

let oracle_value t id a =
  let attr_def (inst : Instance.t) b =
    Schema.attr (schema t) ~type_name:inst.Instance.type_name b
  in
  let memo : (int * string, Value.t) Hashtbl.t = Hashtbl.create 32 in
  let visiting : (int * string, unit) Hashtbl.t = Hashtbl.create 32 in
  let rec go path id a =
    match Hashtbl.find_opt memo (id, a) with
    | Some v -> v
    | None ->
      if Hashtbl.mem visiting (id, a) then raise (Errors.Cycle (List.rev ((id, a) :: path)));
      let inst = Store.get t.store id in
      let def = attr_def inst a in
      let v =
        match def.Schema.kind with
        | Schema.Intrinsic _ -> (Instance.slot inst a).Instance.value
        | Schema.Derived rule ->
          Hashtbl.add visiting (id, a) ();
          let declared s = List.exists (fun s' -> s' = s) rule.Schema.sources in
          let env =
            {
              Schema.self_value =
                (fun b ->
                  if not (declared (Schema.Self b)) then
                    Errors.type_error "oracle: undeclared source self.%s" b;
                  go ((id, a) :: path) id b);
              related_values =
                (fun r name ->
                  if not (declared (Schema.Rel (r, name))) then
                    Errors.type_error "oracle: undeclared source %s.%s" r name;
                  let attr = resolve_transmission t inst r name in
                  Instance.linked inst r |> List.map (fun j -> go ((id, a) :: path) j attr));
            }
          in
          let v = rule.Schema.compute env in
          Hashtbl.remove visiting (id, a);
          v
      in
      Hashtbl.replace memo (id, a) v;
      v
  in
  go [] id a
