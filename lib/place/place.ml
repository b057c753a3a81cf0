module Netlist = Educhip_netlist.Netlist
module Pdk = Educhip_pdk.Pdk
module Rng = Educhip_util.Rng
module Obs = Educhip_obs.Obs
module Fault = Educhip_fault.Fault

let metric_names = [ "place.moves_accepted"; "place.moves_rejected" ]

let fault_sites = [ "place.anneal" ]

type effort = { global_iterations : int; annealing_moves : int; seed : int }

let default_effort = { global_iterations = 30; annealing_moves = 20_000; seed = 1 }
let high_effort = { global_iterations = 60; annealing_moves = 120_000; seed = 1 }
let low_effort = { global_iterations = 15; annealing_moves = 0; seed = 1 }

type role =
  | Movable of float (* cell width; lives in a row *)
  | Pad_in of int (* ordinal among inputs *)
  | Pad_out of int
  | Ghost (* zero-footprint net driver: constants *)

type t = {
  netlist : Netlist.t;
  node : Pdk.node;
  die_w : float;
  die_h : float;
  rows : int;
  roles : role array;
  xs : float array;
  ys : float array;
  nets : int array array; (* pins, driver first; |pins| >= 2 *)
  net_of_driver : int array; (* cell id -> index into [nets], -1 if none *)
  cell_area : float;
}

let netlist t = t.netlist
let node t = t.node
let die_um t = (t.die_w, t.die_h)
let row_count t = t.rows
let location t id = (t.xs.(id), t.ys.(id))

let cell_width_um t id =
  match t.roles.(id) with
  | Movable w -> w
  | Pad_in _ | Pad_out _ | Ghost -> 0.0

let nets t =
  Array.to_list
    (Array.map (fun p -> (p.(0), List.tl (Array.to_list p))) t.nets)

let cell_footprint node (c : Netlist.cell) =
  let h = node.Pdk.row_height_um in
  match c.kind with
  | Netlist.Mapped m -> Some ((Pdk.find_cell node m.Netlist.cell_name).Pdk.area /. h)
  | Netlist.Dff -> Some ((Pdk.dff_cell node).Pdk.area /. h)
  | Netlist.Input | Netlist.Output | Netlist.Const _ -> None
  | Netlist.Buf | Netlist.Not | Netlist.And | Netlist.Or | Netlist.Xor | Netlist.Nand
  | Netlist.Nor | Netlist.Xnor | Netlist.Mux ->
    (* unmapped primitive gates get a NAND2-equivalent footprint so the
       placer also works on pre-mapping netlists *)
    Some ((Pdk.find_cell node "NAND2_X1").Pdk.area /. h)

let build_nets netlist =
  let n = Netlist.cell_count netlist in
  let sinks = Array.make n [] in
  Netlist.iter_cells netlist (fun id c ->
      Array.iter (fun f -> sinks.(f) <- id :: sinks.(f)) c.Netlist.fanins);
  let nets = ref [] in
  for id = 0 to n - 1 do
    match sinks.(id) with
    | [] -> ()
    | pins -> nets := Array.of_list (id :: List.rev pins) :: !nets
  done;
  Array.of_list (List.rev !nets)

let index_nets n nets =
  let index = Array.make n (-1) in
  Array.iteri (fun i p -> index.(p.(0)) <- i) nets;
  index

(* Manhattan distance between cells [i] and [j]; inlined so the float
   stays unboxed. *)
let[@inline] manhattan (xs : float array) (ys : float array) i j =
  Float.abs (xs.(i) -. xs.(j)) +. Float.abs (ys.(i) -. ys.(j))

(* Stores the HPWL of the net with pins [p] at coordinates [xs]/[ys] in
   [dst.(k)]. The one HPWL loop of the module: the anneal's cost cache
   and {!net_hpwl_um} both go through it, and storing into a float array
   keeps the anneal's inner loop free of boxed floats. A two-pin net
   (about half of all net visits) takes |dx| + |dy| without branches:
   round-to-nearest is symmetric, so [Float.abs (x1 -. x0)] is bit-equal
   to [max -. min]. *)
let hpwl_into (xs : float array) (ys : float array) (p : int array) (dst : float array) k =
  let d = p.(0) in
  if Array.length p = 2 then dst.(k) <- manhattan xs ys p.(1) d
  else begin
    let min_x = ref xs.(d) and max_x = ref xs.(d) in
    let min_y = ref ys.(d) and max_y = ref ys.(d) in
    for i = 1 to Array.length p - 1 do
      let x = xs.(p.(i)) and y = ys.(p.(i)) in
      if x < !min_x then min_x := x;
      if x > !max_x then max_x := x;
      if y < !min_y then min_y := y;
      if y > !max_y then max_y := y
    done;
    dst.(k) <- !max_x -. !min_x +. (!max_y -. !min_y)
  end

(* For a draw [u] of [Rng.float rng 1.0], a limit below which every
   exponent [x] has [exp x < u]. Below -746 [exp] underflows to 0.0,
   which settles a draw of 0.0. A nonzero draw is at least 2^-53, so
   [log u] is finite, and the margin below it is far wider than the
   rounding error of [exp] and [log]. *)
let[@inline] exp_below_limit u = if u > 0.0 then log u -. 1e-9 else -746.0

(* Roles and total movable area are a pure function of (netlist, node):
   shared by {!place} and {!restore}, so artifact snapshots only need to
   carry the geometry. *)
let roles_of netlist ~node =
  let n = Netlist.cell_count netlist in
  let roles = Array.make n Ghost in
  let total_area = ref 0.0 in
  let in_ordinal = ref 0 and out_ordinal = ref 0 in
  Netlist.iter_cells netlist (fun id c ->
      match c.Netlist.kind with
      | Netlist.Input ->
        roles.(id) <- Pad_in !in_ordinal;
        incr in_ordinal
      | Netlist.Output ->
        roles.(id) <- Pad_out !out_ordinal;
        incr out_ordinal
      | Netlist.Const _ -> roles.(id) <- Ghost
      | _ -> (
        match cell_footprint node c with
        | Some w ->
          roles.(id) <- Movable w;
          total_area := !total_area +. (w *. node.Pdk.row_height_um)
        | None -> roles.(id) <- Ghost));
  (roles, !total_area)

let place netlist ~node ?(utilization = 0.65) effort =
  if utilization <= 0.0 || utilization > 0.95 then
    invalid_arg "Place.place: utilization must be in (0, 0.95]";
  let n = Netlist.cell_count netlist in
  if n = 0 then invalid_arg "Place.place: empty netlist";
  let rng = Rng.create ~seed:effort.seed in
  (* {2 Roles and floorplan} *)
  let roles, area = roles_of netlist ~node in
  let total_area = ref area in
  let h = node.Pdk.row_height_um in
  let core_area = Float.max (!total_area /. utilization) (h *. h *. 4.0) in
  let die = sqrt core_area in
  let rows = max 2 (int_of_float (die /. h)) in
  let die_h = float_of_int rows *. h in
  (* tiny designs can have a single cell wider than the square-root die:
     the die width must fit the widest cell with some routing slack *)
  let widest =
    let w = ref 0.0 in
    Netlist.iter_cells netlist (fun _ c ->
        match cell_footprint node c with
        | Some width -> if width > !w then w := width
        | None -> ());
    !w
  in
  let die_w = ref (Float.max (core_area /. die_h) (widest *. 1.1)) in
  (* {2 Pad locations} *)
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  let n_in = max 1 (List.length (Netlist.inputs netlist))
  and n_out = max 1 (List.length (Netlist.outputs netlist)) in
  let position_pads () =
    Array.iteri
      (fun id role ->
        match role with
        | Pad_in k ->
          xs.(id) <- 0.0;
          ys.(id) <- die_h *. (float_of_int k +. 0.5) /. float_of_int n_in
        | Pad_out k ->
          xs.(id) <- !die_w;
          ys.(id) <- die_h *. (float_of_int k +. 0.5) /. float_of_int n_out
        | Movable _ | Ghost -> ())
      roles
  in
  position_pads ();
  Array.iteri
    (fun id role ->
      match role with
      | Movable _ | Ghost ->
        xs.(id) <- (!die_w /. 2.0) +. Rng.float rng (!die_w /. 10.0) -. (!die_w /. 20.0);
        ys.(id) <- (die_h /. 2.0) +. Rng.float rng (die_h /. 10.0) -. (die_h /. 20.0)
      | Pad_in _ | Pad_out _ -> ())
    roles;
  let nets = build_nets netlist in
  (* adjacency for the force-directed pass *)
  let neighbors = Array.make n [] in
  Array.iter
    (fun p ->
      let driver = p.(0) in
      for i = 1 to Array.length p - 1 do
        let s = p.(i) in
        neighbors.(driver) <- s :: neighbors.(driver);
        neighbors.(s) <- driver :: neighbors.(s)
      done)
    nets;
  (* {2 Global placement: barycentric relaxation} *)
  Obs.with_span "place.global"
    ~attrs:[ ("iterations", Obs.Int effort.global_iterations); ("cells", Obs.Int n) ]
    (fun () ->
      for _ = 1 to effort.global_iterations do
        for id = 0 to n - 1 do
          match roles.(id) with
          | Movable _ | Ghost -> (
            match neighbors.(id) with
            | [] -> ()
            | ns ->
              let sx = List.fold_left (fun acc j -> acc +. xs.(j)) 0.0 ns in
              let sy = List.fold_left (fun acc j -> acc +. ys.(j)) 0.0 ns in
              let k = float_of_int (List.length ns) in
              (* damped move keeps the relaxation stable *)
              xs.(id) <- (0.2 *. xs.(id)) +. (0.8 *. sx /. k);
              ys.(id) <- (0.2 *. ys.(id)) +. (0.8 *. sy /. k))
          | Pad_in _ | Pad_out _ -> ()
        done
      done);
  (* {2 Legalization: capacity-aware row assignment + tetris packing}

     Cells are taken nearest-row-first; a cell that does not fit its
     preferred row walks outward to the closest row with room. Total cell
     area is at most [utilization]·core, so a fitting row always exists. *)
  let movable =
    let ids = ref [] in
    for id = n - 1 downto 0 do
      match roles.(id) with Movable _ -> ids := id :: !ids | _ -> ()
    done;
    !ids
  in
  let row_of_y y = max 0 (min (rows - 1) (int_of_float (y /. h))) in
  let width_of id = match roles.(id) with Movable w -> w | _ -> 0.0 in
  let legalize () =
    let clean = ref true in
    let remaining = Array.make rows !die_w in
    let members = Array.make rows [] in
    (* first-fit-decreasing: wide cells claim their rows while everything
       is still empty, so a cell spanning half the die always finds room *)
    let ordered =
      List.sort
        (fun a b ->
          compare (-.width_of a, ys.(a), xs.(a), a) (-.width_of b, ys.(b), xs.(b), b))
        movable
    in
    List.iter
      (fun id ->
        let w = width_of id in
        let preferred = row_of_y ys.(id) in
        let rec pick offset =
          let below = preferred - offset and above = preferred + offset in
          if offset > rows then begin
            (* nothing fits: take the emptiest row and flag the failure so
               the caller can grow the die and retry *)
            clean := false;
            let best = ref 0 in
            for r = 1 to rows - 1 do
              if remaining.(r) > remaining.(!best) then best := r
            done;
            !best
          end
          else if below >= 0 && remaining.(below) >= w then below
          else if above < rows && remaining.(above) >= w then above
          else pick (offset + 1)
        in
        let r = pick 0 in
        remaining.(r) <- remaining.(r) -. w;
        members.(r) <- id :: members.(r))
      ordered;
    for r = 0 to rows - 1 do
      let row = List.sort (fun a b -> compare (xs.(a), a) (xs.(b), b)) members.(r) in
      let y = (float_of_int r +. 0.5) *. h in
      let total = List.fold_left (fun acc id -> acc +. width_of id) 0.0 row in
      let bary =
        match row with
        | [] -> 0.0
        | _ ->
          List.fold_left (fun acc id -> acc +. xs.(id)) 0.0 row
          /. float_of_int (List.length row)
      in
      let cursor =
        ref (Float.max 0.0 (Float.min (!die_w -. total) (bary -. (total /. 2.0))))
      in
      List.iter
        (fun id ->
          let w = width_of id in
          xs.(id) <- !cursor +. (w /. 2.0);
          ys.(id) <- y;
          cursor := !cursor +. w)
        row
    done;
    !clean
  in
  (* row quantization can defeat the area-based die width when cells span
     a large fraction of a row: grow the die until packing succeeds *)
  let rec legalize_fitting attempts =
    if not (legalize ()) && attempts > 0 then begin
      die_w := !die_w *. 1.3;
      position_pads ();
      ignore (legalize_fitting (attempts - 1))
    end
  in
  Obs.with_span "place.legalize" (fun () -> legalize_fitting 8);
  (* ghosts snap to nearest row center to keep geometry meaningful *)
  Array.iteri
    (fun id role ->
      match role with
      | Ghost ->
        xs.(id) <- Float.max 0.0 (Float.min !die_w xs.(id));
        ys.(id) <- (float_of_int (row_of_y ys.(id)) +. 0.5) *. h
      | Movable _ | Pad_in _ | Pad_out _ -> ())
    roles;
  let t =
    {
      netlist;
      node;
      die_w = !die_w;
      die_h;
      rows;
      roles;
      xs;
      ys;
      nets;
      net_of_driver = index_nets n nets;
      cell_area = !total_area;
    }
  in
  (* {2 Detailed placement: annealing over position swaps}

     Swapping two cells of similar width (or adjacent cells in one row)
     keeps the placement legal without re-packing; the cost delta is the
     HPWL change over the nets touching the two cells. *)
  (* A corrupt anneal skips detailed placement entirely: the legalized
     global placement is still valid, just with a worse wirelength. *)
  if effort.annealing_moves > 0 && not (Fault.corrupted "place.anneal") then begin
    Fault.check "place.anneal";
    let movable_arr = Array.of_list movable in
    let m = Array.length movable_arr in
    if m >= 2 then
      Obs.with_span "place.anneal"
        ~attrs:[ ("moves", Obs.Int effort.annealing_moves) ]
      @@ fun () -> begin
      (* A move builds no lists or tables. [cost] caches every net's
         HPWL at the current coordinates; HPWL is a pure function of the
         coordinates, so a move reads its "before" sum from the cache and
         computes "after" values, written back if the move is accepted.
         Cell [c]'s nets are [inc_net.(inc_start.(c) ..
         inc_start.(c + 1) - 1)], in decreasing net index: every sum
         below runs in that order, and the pinned placements depend on
         it. [inc_pin] holds, for each of them, the pin the move's lower
         bound measures [c] against: the driver, or the first sink when
         [c] drives the net. *)
      let inc_start = Array.make (n + 1) 0 in
      Array.iter
        (fun p -> Array.iter (fun c -> inc_start.(c + 1) <- inc_start.(c + 1) + 1) p)
        nets;
      for c = 1 to n do
        inc_start.(c) <- inc_start.(c) + inc_start.(c - 1)
      done;
      let inc_net = Array.make inc_start.(n) 0 and inc_pin = Array.make inc_start.(n) 0 in
      let fill = Array.sub inc_start 0 n in
      for idx = Array.length nets - 1 downto 0 do
        let p = nets.(idx) in
        for i = 0 to Array.length p - 1 do
          let c = p.(i) in
          inc_net.(fill.(c)) <- idx;
          inc_pin.(fill.(c)) <- (if p.(0) = c then p.(1) else p.(0));
          fill.(c) <- fill.(c) + 1
        done
      done;
      let cost = Array.make (Array.length nets) 0.0 in
      Array.iteri (fun idx p -> hpwl_into xs ys p cost idx) nets;
      (* The nets touching a or b, each once: a's then b's, in
         first-occurrence order. Every sum runs in this order, so it is
         bit-identical to summing over [a's nets @ b's nets] with
         duplicates dropped. [stamp] holds the last move that visited
         each net, [bounds.(k)] the lower bound of [union.(k)] and
         [fresh.(k)] its exact "after" HPWL. *)
      let widest_union =
        let widest = ref 0 in
        for c = 0 to n - 1 do
          widest := max !widest (inc_start.(c + 1) - inc_start.(c))
        done;
        2 * !widest
      in
      let union = Array.make widest_union 0 in
      let bounds = Array.make widest_union 0.0 and fresh = Array.make widest_union 0.0 in
      let stamp = Array.make (Array.length nets) 0 in
      let temperature = ref (!die_w /. 4.0) in
      let cooling = 0.999 ** (20_000.0 /. float_of_int effort.annealing_moves) in
      let obs_on = Obs.enabled () in
      let accepted = ref 0 and rejected = ref 0 in
      (* sample the temperature schedule at ~64 points across the run *)
      let sample_every = max 1 (effort.annealing_moves / 64) in
      for move = 1 to effort.annealing_moves do
        let a = movable_arr.(Rng.int rng m) in
        let b = movable_arr.(Rng.int rng m) in
        if a <> b then begin
          let ax = xs.(a) and ay = ys.(a) and bx = xs.(b) and by = ys.(b) in
          xs.(a) <- bx;
          ys.(a) <- by;
          xs.(b) <- ax;
          ys.(b) <- ay;
          (* Collect the union, summing the cached "before" and a lower
             bound on every net's "after" HPWL: the distance from the
             mover that brought the net in to one other pin, at the
             swapped coordinates (a net's HPWL is at least the distance
             between any two of its pins). *)
          let len = ref 0 and before = ref 0.0 and bound = ref 0.0 in
          for pass = 0 to 1 do
            let cell = if pass = 0 then a else b in
            for i = inc_start.(cell) to inc_start.(cell + 1) - 1 do
              let idx = inc_net.(i) in
              if stamp.(idx) <> move then begin
                stamp.(idx) <- move;
                union.(!len) <- idx;
                before := !before +. cost.(idx);
                let lb = manhattan xs ys inc_pin.(i) cell in
                bounds.(!len) <- lb;
                bound := !bound +. lb;
                incr len
              end
            done
          done;
          (* [Float.max 1e-6] as a plain compare: the temperature is
             positive, and [Float.max] tests signs in C on every move *)
          let temp = if !temperature < 1e-6 then 1e-6 else !temperature in
          (* Settle the move as early as it is decided. The exact rule
             accepts iff [delta <= 0 || u < exp (-.delta /. temp)], where
             [u = Rng.float rng 1.0] is drawn only when [delta > 0].
             [bound] is the left fold, in union order, of the exact HPWL
             of the first [j] nets and the lower bound of the rest. Each
             bound is <= its exact value and float [+.] is monotone, so
             [bound] never decreases as [j] grows and equals the exact
             "after" sum at [j = len]. Once [bound > before], [delta > 0]
             is certain: [u] is drawn there, the one draw the exact rule
             makes, and the move is rejected as soon as
             [x = -.(bound -. before) /. temp], an upper bound on the
             exact exponent, puts [exp x] below [u]: [x < limit], set
             once at the draw (see [exp_below_limit]; before it no [x]
             is below [limit]). Otherwise the next net is scanned
             exactly. At [j = len] the exact rule applies unchanged, so
             every accept, reject and draw is the exact rule's. *)
          let j = ref 0 and prefix = ref 0.0 in
          let drawn = ref false and u = ref 0.0 and limit = ref neg_infinity in
          let settled = ref false in
          while (not !settled) && !j < !len do
            let gap = !bound -. !before in
            if gap > 0.0 && not !drawn then begin
              u := Rng.float rng 1.0;
              drawn := true;
              limit := exp_below_limit !u
            end;
            if -.gap /. temp < !limit then settled := true
            else begin
              hpwl_into xs ys nets.(union.(!j)) fresh !j;
              prefix := !prefix +. fresh.(!j);
              incr j;
              let l = ref !prefix in
              for k = !j to !len - 1 do
                l := !l +. bounds.(k)
              done;
              bound := !l
            end
          done;
          let accept =
            (not !settled)
            &&
            let delta = !bound -. !before in
            delta <= 0.0
            || begin
              if not !drawn then u := Rng.float rng 1.0;
              !u < exp (-.delta /. temp)
            end
          in
          if accept then begin
            incr accepted;
            for k = 0 to !len - 1 do
              cost.(union.(k)) <- fresh.(k)
            done
          end
          else begin
            rejected := !rejected + 1;
            xs.(a) <- ax;
            ys.(a) <- ay;
            xs.(b) <- bx;
            ys.(b) <- by
          end;
          temperature := !temperature *. cooling
        end;
        if obs_on && move mod sample_every = 0 then
          Obs.observe "place.temperature" !temperature
      done;
      if obs_on then begin
        Obs.add_counter "place.moves_accepted" !accepted;
        Obs.add_counter "place.moves_rejected" !rejected;
        Obs.set_attr "accepted" (Obs.Int !accepted);
        Obs.set_attr "rejected" (Obs.Int !rejected);
        Obs.set_attr "final_temperature" (Obs.Float !temperature)
      end;
      (* swapped cells of different widths can overlap or overflow a row:
         run the capacity-aware legalizer again (the die is already sized) *)
      ignore (legalize ())
    end
  end;
  t

let net_hpwl_of t p =
  let r = [| 0.0 |] in
  hpwl_into t.xs t.ys p r 0;
  r.(0)

let hpwl_um t = Array.fold_left (fun acc net -> acc +. net_hpwl_of t net) 0.0 t.nets

let net_hpwl_um t driver =
  if driver < 0 || driver >= Array.length t.net_of_driver then 0.0
  else
    match t.net_of_driver.(driver) with -1 -> 0.0 | i -> net_hpwl_of t t.nets.(i)

let check_legal t =
  let problems = ref [] in
  let h = t.node.Pdk.row_height_um in
  let by_row = Hashtbl.create 16 in
  Array.iteri
    (fun id role ->
      match role with
      | Movable w ->
        let x = t.xs.(id) and y = t.ys.(id) in
        if x -. (w /. 2.0) < -1e-6 || x +. (w /. 2.0) > t.die_w +. 1e-6 then
          problems := Printf.sprintf "cell %d outside die in x" id :: !problems;
        let r = int_of_float (y /. h) in
        let center = (float_of_int r +. 0.5) *. h in
        if Float.abs (y -. center) > 1e-6 then
          problems := Printf.sprintf "cell %d not on a row center" id :: !problems;
        let row = try Hashtbl.find by_row r with Not_found -> [] in
        Hashtbl.replace by_row r ((id, x -. (w /. 2.0), x +. (w /. 2.0)) :: row)
      | Pad_in _ | Pad_out _ | Ghost -> ())
    t.roles;
  Hashtbl.iter
    (fun _ cells ->
      let sorted = List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2) cells in
      let rec overlaps = function
        | (a, _, r1) :: ((b, l2, _) :: _ as rest) ->
          if r1 -. l2 > 1e-6 then
            problems := Printf.sprintf "cells %d and %d overlap" a b :: !problems;
          overlaps rest
        | [ _ ] | [] -> ()
      in
      overlaps sorted)
    by_row;
  List.rev !problems

let utilization t = t.cell_area /. (t.die_w *. t.die_h)

(* {2 Artifact snapshots}

   Only the geometry that cannot be recomputed is captured: the (possibly
   legalization-grown) die width, the row count, and the coordinate
   arrays. Roles, nets, and cell area are pure functions of
   (netlist, node) and are rebuilt on restore. *)

type snapshot = {
  snap_die_w : float;
  snap_rows : int;
  snap_xs : float array;
  snap_ys : float array;
}

let snapshot t =
  {
    snap_die_w = t.die_w;
    snap_rows = t.rows;
    snap_xs = Array.copy t.xs;
    snap_ys = Array.copy t.ys;
  }

let restore netlist ~node s =
  let n = Netlist.cell_count netlist in
  if Array.length s.snap_xs <> n || Array.length s.snap_ys <> n then
    invalid_arg
      (Printf.sprintf
         "Place.restore: %d coordinates for a %d-cell netlist"
         (Array.length s.snap_xs) n);
  if s.snap_rows < 1 then invalid_arg "Place.restore: rows must be >= 1";
  let roles, cell_area = roles_of netlist ~node in
  let nets = build_nets netlist in
  {
    netlist;
    node;
    die_w = s.snap_die_w;
    die_h = float_of_int s.snap_rows *. node.Pdk.row_height_um;
    rows = s.snap_rows;
    roles;
    xs = Array.copy s.snap_xs;
    ys = Array.copy s.snap_ys;
    nets;
    net_of_driver = index_nets n nets;
    cell_area;
  }
