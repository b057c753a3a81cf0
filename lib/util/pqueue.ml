(* Parallel arrays: entry [i] is [(prio.(i), order.(i), values.(i))]. The
   float array is unboxed and the sifts keep the moving entry's priority
   in a local, so no entry is boxed: [pop_exn] allocates nothing, and
   [push] only its boxed [priority] argument. *)
type 'a t = {
  mutable prio : float array;
  mutable order : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_order : int;
}

let create () = { prio = [||]; order = [||]; values = [||]; size = 0; next_order = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t v =
  let capacity = max 16 (2 * Array.length t.prio) in
  let prio = Array.make capacity 0.0 in
  let order = Array.make capacity 0 in
  let values = Array.make capacity v in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.order 0 order 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.prio <- prio;
  t.order <- order;
  t.values <- values

(* The entry at [i] moves up: every greater parent moves down into the
   hole until the entry fits. Ties on priority go to the earlier
   insertion. *)
let sift_up t i =
  let p = t.prio.(i) and o = t.order.(i) and v = t.values.(i) in
  let hole = ref i in
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let q = t.prio.(parent) in
    if p < q || (p = q && o < t.order.(parent)) then begin
      t.prio.(!hole) <- q;
      t.order.(!hole) <- t.order.(parent);
      t.values.(!hole) <- t.values.(parent);
      hole := parent
    end
    else rising := false
  done;
  t.prio.(!hole) <- p;
  t.order.(!hole) <- o;
  t.values.(!hole) <- v

(* The entry at [i] moves down: the smaller child moves up into the hole
   while it is smaller than the entry. *)
let sift_down t i =
  let p = t.prio.(i) and o = t.order.(i) and v = t.values.(i) in
  let hole = ref i in
  let sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    let right = left + 1 in
    (* the least of the entry and its two children *)
    let child =
      if left >= t.size then -1
      else begin
        let ql = t.prio.(left) and ol = t.order.(left) in
        let left_first = ql < p || (ql = p && ol < o) in
        let min_p = if left_first then ql else p and min_o = if left_first then ol else o in
        let right_first =
          right < t.size
          &&
          let qr = t.prio.(right) in
          qr < min_p || (qr = min_p && t.order.(right) < min_o)
        in
        if right_first then right else if left_first then left else -1
      end
    in
    if child < 0 then sinking := false
    else begin
      t.prio.(!hole) <- t.prio.(child);
      t.order.(!hole) <- t.order.(child);
      t.values.(!hole) <- t.values.(child);
      hole := child
    end
  done;
  t.prio.(!hole) <- p;
  t.order.(!hole) <- o;
  t.values.(!hole) <- v

let push t ~priority value =
  if t.size = Array.length t.prio then grow t value;
  let i = t.size in
  t.prio.(i) <- priority;
  t.order.(i) <- t.next_order;
  t.values.(i) <- value;
  t.next_order <- t.next_order + 1;
  t.size <- i + 1;
  sift_up t i

let pop_exn t =
  if t.size = 0 then raise Not_found;
  let top = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.prio.(0) <- t.prio.(last);
    t.order.(0) <- t.order.(last);
    t.values.(0) <- t.values.(last);
    sift_down t 0
  end;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let peek t = if t.size = 0 then None else Some t.values.(0)

let peek_priority t = if t.size = 0 then None else Some t.prio.(0)

let clear t =
  t.size <- 0;
  t.next_order <- 0
