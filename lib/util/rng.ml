(* The SplitMix64 counter lives in 8 bytes read and written with
   [Bytes.get_int64_ne]/[set_int64_ne], which the native compiler keeps
   unboxed, so drawing an [int] allocates nothing (a [mutable int64]
   field would box every new state). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_counter z =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 z;
  t

let create ~seed = of_counter (Int64.of_int seed)

let copy = Bytes.copy

(* Advances the counter and returns the splitmix64 finalizer of it, a
   well distributed 64-bit value. Inlined into each caller so the
   result stays unboxed. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random mantissa bits scaled into [0, bound). *)
  let mantissa = Int64.shift_right_logical (next t) 11 in
  Int64.to_float mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  float t 1.0 < p

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let split t = of_counter (next t)
