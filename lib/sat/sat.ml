(* Conflict-driven clause learning (CDCL) SAT solver:

   - two-watched-literal unit propagation,
   - first-UIP conflict analysis with non-chronological backjumping,
   - VSIDS variable activities (bumped during analysis, decayed by
     rescaling the increment),
   - geometric restarts keeping all learned clauses.

   Literal encoding: variable v > 0; literal +v or -v (DIMACS).
   Internal index of a literal: 2v for +v, 2v+1 for -v. *)

type clause = { lits : int array; learned : bool } (* slots 0,1 watched *)

type t = {
  mutable nvars : int;
  mutable assign : int array; (* 1-based; 0 unknown, 1 true, -1 false *)
  mutable level : int array; (* decision level of each assigned var *)
  mutable reason : int array; (* clause id that implied the var, or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity per variable *)
  mutable var_inc : float;
  mutable watches : int list array; (* literal index -> clause ids *)
  mutable clauses : clause array;
  mutable nclauses : int;
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int list; (* trail sizes at decision points, newest first *)
  mutable qhead : int; (* propagation frontier into the trail *)
  mutable trivially_unsat : bool;
  seen : (int, unit) Hashtbl.t; (* scratch for conflict analysis *)
  (* cumulative search statistics, flushed to Educhip_obs per solve *)
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
}

type stats = { decisions : int; conflicts : int; propagations : int; restarts : int }

type result = Sat of bool array | Unsat | Unknown

let create () =
  {
    nvars = 0;
    assign = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    var_inc = 1.0;
    watches = Array.make 32 [];
    clauses = Array.make 16 { lits = [||]; learned = false };
    nclauses = 0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = [];
    qhead = 0;
    trivially_unsat = false;
    seen = Hashtbl.create 64;
    n_decisions = 0;
    n_conflicts = 0;
    n_propagations = 0;
    n_restarts = 0;
  }

let stats t =
  {
    decisions = t.n_decisions;
    conflicts = t.n_conflicts;
    propagations = t.n_propagations;
    restarts = t.n_restarts;
  }

let metric_names =
  [ "sat.decisions"; "sat.conflicts"; "sat.propagations"; "sat.restarts" ]

let fresh_var t =
  t.nvars <- t.nvars + 1;
  let v = t.nvars in
  let ensure arr default =
    if v >= Array.length arr then begin
      let grown = Array.make (2 * (v + 1)) default in
      Array.blit arr 0 grown 0 (Array.length arr);
      grown
    end
    else arr
  in
  t.assign <- ensure t.assign 0;
  t.level <- ensure t.level 0;
  t.reason <- ensure t.reason (-1);
  t.activity <- ensure t.activity 0.0;
  t.phase <- ensure t.phase false;
  if (2 * v) + 1 >= Array.length t.watches then begin
    let grown = Array.make (4 * (v + 1)) [] in
    Array.blit t.watches 0 grown 0 (Array.length t.watches);
    t.watches <- grown
  end;
  if v >= Array.length t.trail then begin
    let grown = Array.make (2 * (v + 1)) 0 in
    Array.blit t.trail 0 grown 0 (Array.length t.trail);
    t.trail <- grown
  end;
  v

let var_count t = t.nvars

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1

let value t l =
  let v = t.assign.(abs l) in
  if v = 0 then 0 else if (l > 0 && v = 1) || (l < 0 && v = -1) then 1 else -1

let current_level t = List.length t.trail_lim

let check_lit t l =
  let v = abs l in
  if l = 0 || v > t.nvars then invalid_arg "Sat.add_clause: unallocated variable"

let append_clause t c =
  if t.nclauses = Array.length t.clauses then begin
    let clauses = Array.make (2 * t.nclauses) { lits = [||]; learned = false } in
    Array.blit t.clauses 0 clauses 0 t.nclauses;
    t.clauses <- clauses
  end;
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch t l cid = t.watches.(lit_index l) <- cid :: t.watches.(lit_index l)

(* Unit clauses are stored with the literal duplicated so the watch
   machinery needs no special case. *)
let add_clause t lits =
  List.iter (check_lit t) lits;
  let lits = List.sort_uniq compare lits in
  let tautology = List.exists (fun l -> List.mem (-l) lits) lits in
  if not tautology then
    match lits with
    | [] -> t.trivially_unsat <- true
    | [ l ] ->
      let id = append_clause t { lits = [| l; l |]; learned = false } in
      watch t l id
    | l0 :: l1 :: _ ->
      let id = append_clause t { lits = Array.of_list lits; learned = false } in
      watch t l0 id;
      watch t l1 id

(* {1 Assignment and propagation} *)

let enqueue t lit ~reason =
  let v = abs lit in
  t.assign.(v) <- (if lit > 0 then 1 else -1);
  t.phase.(v) <- lit > 0; (* phase saving: remember the last polarity *)
  t.level.(v) <- current_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_size) <- lit;
  t.trail_size <- t.trail_size + 1

(* Propagate everything pending on the trail; [Some cid] is a conflict. *)
let propagate t =
  let conflict = ref None in
  while !conflict = None && t.qhead < t.trail_size do
    let lit = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = -lit in
    let idx = lit_index false_lit in
    let pending = t.watches.(idx) in
    t.watches.(idx) <- [];
    let rec go kept = function
      | [] -> t.watches.(idx) <- kept
      | cid :: rest -> (
        let lits = t.clauses.(cid).lits in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if value t lits.(0) = 1 then go (cid :: kept) rest
        else begin
          let n = Array.length lits in
          let rec find i =
            if i >= n then -1 else if value t lits.(i) >= 0 then i else find (i + 1)
          in
          let j = find 2 in
          if j >= 0 then begin
            lits.(1) <- lits.(j);
            lits.(j) <- false_lit;
            watch t lits.(1) cid;
            go kept rest
          end
          else
            match value t lits.(0) with
            | 0 ->
              enqueue t lits.(0) ~reason:cid;
              go (cid :: kept) rest
            | _ ->
              (* conflict; preserve every watch registration *)
              conflict := Some cid;
              t.watches.(idx) <- List.rev_append kept (cid :: rest)
        end)
    in
    go [] pending
  done;
  !conflict

(* {1 VSIDS} *)

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let decay_activities t = t.var_inc <- t.var_inc /. 0.95

let pick_branch t =
  let best = ref 0 and best_activity = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) = 0 && t.activity.(v) > !best_activity then begin
      best := v;
      best_activity := t.activity.(v)
    end
  done;
  !best

(* {1 Conflict analysis: first UIP} *)

(* Resolve backwards along the trail from the conflicting clause until a
   single literal of the current decision level remains; that literal is
   the first unique implication point. Returns the learned clause (UIP
   first) and the backjump level. *)
let analyze t conflict_cid =
  let conflict_level = current_level t in
  Hashtbl.reset t.seen;
  let learned = ref [] in
  let counter = ref 0 in
  let absorb cid =
    Array.iter
      (fun l ->
        let v = abs l in
        (* skip the clause's satisfied literal (the implied variable being
           resolved away) and root-level assignments *)
        if value t l <> 1 && (not (Hashtbl.mem t.seen v)) && t.level.(v) > 0 then begin
          Hashtbl.replace t.seen v ();
          bump_var t v;
          if t.level.(v) = conflict_level then incr counter
          else learned := l :: !learned
        end)
      t.clauses.(cid).lits
  in
  absorb conflict_cid;
  (* walk the trail backwards, resolving on seen vars of this level *)
  let uip = ref 0 in
  let i = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let lit = t.trail.(!i) in
    let v = abs lit in
    if Hashtbl.mem t.seen v then begin
      Hashtbl.remove t.seen v;
      decr counter;
      if !counter = 0 then begin
        uip := -lit;
        continue := false
      end
      else absorb t.reason.(v)
    end;
    decr i
  done;
  let learned_lits = !uip :: !learned in
  (* backjump level: the highest level among the non-UIP literals *)
  let backjump =
    List.fold_left (fun acc l -> max acc t.level.(abs l)) 0 !learned
  in
  (learned_lits, backjump)

(* Undo all assignments above [target_level]. [t.trail_lim] holds the trail
   size at each decision point, newest first, so the boundary of level
   [target_level + 1] sits [current - target - 1] elements from the head. *)
let backjump_to t target_level =
  let cur = current_level t in
  if cur > target_level then begin
    let rec nth lims n =
      match lims with
      | [] -> 0
      | x :: rest -> if n = 0 then x else nth rest (n - 1)
    in
    let cut = nth t.trail_lim (cur - target_level - 1) in
    for i = t.trail_size - 1 downto cut do
      let v = abs t.trail.(i) in
      t.assign.(v) <- 0;
      t.reason.(v) <- -1
    done;
    t.trail_size <- cut;
    t.qhead <- cut;
    let rec drop lims n =
      if n = 0 then lims else match lims with [] -> [] | _ :: rest -> drop rest (n - 1)
    in
    t.trail_lim <- drop t.trail_lim (cur - target_level)
  end

let learn t lits =
  match lits with
  | [ l ] ->
    (* unit learned clause: backjump_to 0 already happened; assert it *)
    let id = append_clause t { lits = [| l; l |]; learned = true } in
    watch t l id;
    enqueue t l ~reason:id
  | uip :: _ :: _ ->
    (* watch the UIP and one literal of the backjump level *)
    let arr = Array.of_list lits in
    (* move a highest-level non-UIP literal to slot 1 *)
    let best = ref 1 in
    for i = 1 to Array.length arr - 1 do
      if t.level.(abs arr.(i)) > t.level.(abs arr.(!best)) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let id = append_clause t { lits = arr; learned = true } in
    watch t arr.(0) id;
    watch t arr.(1) id;
    enqueue t uip ~reason:id
  | [] -> t.trivially_unsat <- true

(* {1 Top level} *)

let reset_search t =
  for i = t.trail_size - 1 downto 0 do
    let v = abs t.trail.(i) in
    t.assign.(v) <- 0;
    t.reason.(v) <- -1
  done;
  t.trail_size <- 0;
  t.qhead <- 0;
  t.trail_lim <- []

let solve_inner ~assumptions ~conflict_limit t =
  if t.trivially_unsat then Unsat
  else begin
    reset_search t;
    (* root-level units (original and previously learned) *)
    let exception Done of result in
    try
      for cid = 0 to t.nclauses - 1 do
        let c = t.clauses.(cid) in
        if Array.length c.lits = 2 && c.lits.(0) = c.lits.(1) then
          match value t c.lits.(0) with
          | 0 -> enqueue t c.lits.(0) ~reason:cid
          | -1 -> raise (Done Unsat)
          | _ -> ()
      done;
      if propagate t <> None then raise (Done Unsat);
      let conflicts = ref 0 in
      let total_conflicts = ref 0 in
      let restart_limit = ref 64 in
      let assumed = ref 0 in
      let assumption_depth = ref 0 in
      let remaining_assumptions = ref assumptions in
      let rec search () =
        (match propagate t with
        | Some conflict_cid ->
          incr conflicts;
          incr total_conflicts;
          t.n_conflicts <- t.n_conflicts + 1;
          (match conflict_limit with
          | Some limit when !total_conflicts > limit -> raise (Done Unknown)
          | Some _ | None -> ());
          decay_activities t;
          (* conflicts at or below the assumption prefix refute it *)
          if current_level t <= !assumption_depth then raise (Done Unsat);
          let learned_lits, backjump = analyze t conflict_cid in
          let backjump = max backjump !assumption_depth in
          backjump_to t backjump;
          learn t learned_lits;
          if !conflicts >= !restart_limit then begin
            conflicts := 0;
            restart_limit := !restart_limit * 2;
            t.n_restarts <- t.n_restarts + 1;
            backjump_to t !assumption_depth
          end
        | None -> (
          (* extend assumptions first, then decide on activity *)
          match !remaining_assumptions with
          | l :: rest -> (
            match value t l with
            | 1 ->
              remaining_assumptions := rest;
              incr assumed
            | -1 -> raise (Done Unsat)
            | _ ->
              t.trail_lim <- t.trail_size :: t.trail_lim;
              assumption_depth := !assumption_depth + 1;
              remaining_assumptions := rest;
              incr assumed;
              enqueue t l ~reason:(-1))
          | [] ->
            let v = pick_branch t in
            if v = 0 then begin
              let model = Array.make (t.nvars + 1) false in
              for i = 1 to t.nvars do
                model.(i) <- t.assign.(i) = 1
              done;
              raise (Done (Sat model))
            end
            else begin
              t.trail_lim <- t.trail_size :: t.trail_lim;
              t.n_decisions <- t.n_decisions + 1;
              enqueue t (if t.phase.(v) then v else -v) ~reason:(-1)
            end));
        search ()
      in
      search ()
    with Done r -> r
  end

module Obs = Educhip_obs.Obs
module Fault = Educhip_fault.Fault

let fault_sites = [ "sat.solve" ]

let solve ?(assumptions = []) ?conflict_limit t =
  Fault.check "sat.solve";
  let d0 = t.n_decisions
  and c0 = t.n_conflicts
  and p0 = t.n_propagations
  and r0 = t.n_restarts in
  let result =
    (* A corrupt solve behaves like an immediate conflict-limit hit:
       [Unknown] is a legal inconclusive answer every caller handles. *)
    if Fault.corrupted "sat.solve" then Unknown
    else solve_inner ~assumptions ~conflict_limit t
  in
  if Obs.enabled () then begin
    Obs.add_counter "sat.decisions" (t.n_decisions - d0);
    Obs.add_counter "sat.conflicts" (t.n_conflicts - c0);
    Obs.add_counter "sat.propagations" (t.n_propagations - p0);
    Obs.add_counter "sat.restarts" (t.n_restarts - r0)
  end;
  result

let check_model t model =
  let ok = ref true in
  for cid = 0 to t.nclauses - 1 do
    let lits = t.clauses.(cid).lits in
    if not t.clauses.(cid).learned then begin
      let satisfied =
        Array.exists (fun l -> if l > 0 then model.(l) else not model.(-l)) lits
      in
      if not satisfied then ok := false
    end
  done;
  !ok

(* {1 Structural helpers} *)

let add_and t out a b =
  add_clause t [ -out; a ];
  add_clause t [ -out; b ];
  add_clause t [ out; -a; -b ]

let add_xor t out a b =
  add_clause t [ -out; a; b ];
  add_clause t [ -out; -a; -b ];
  add_clause t [ out; -a; b ];
  add_clause t [ out; a; -b ]

let add_equiv t a b =
  add_clause t [ -a; b ];
  add_clause t [ a; -b ]

module Netlist = Educhip_netlist.Netlist

(* One clause per minterm of the cell's truth table, in minterm order:
   the solver's search follows clause order, so BMC counterexamples and
   ATPG patterns are pinned to it. *)
let add_cell t var_of id (c : Netlist.cell) =
  match c.Netlist.kind with
  | Netlist.Input | Netlist.Dff -> ()
  | Netlist.Const b -> add_clause t [ (if b then var_of id else -(var_of id)) ]
  | Netlist.Output -> add_equiv t (var_of id) (var_of c.Netlist.fanins.(0))
  | k -> (
    match Netlist.kind_table k with
    | None -> ()
    | Some (arity, table) ->
      let out = var_of id in
      for minterm = 0 to (1 lsl arity) - 1 do
        let out_lit = if (table lsr minterm) land 1 = 1 then out else -out in
        let antecedents =
          List.init arity (fun j ->
              let v = var_of c.Netlist.fanins.(j) in
              if (minterm lsr j) land 1 = 1 then -v else v)
        in
        add_clause t (out_lit :: antecedents)
      done)
