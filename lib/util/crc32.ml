(* Table-driven CRC-32, reflected form, polynomial 0xEDB88320. The
   register and the table entries are plain [int]s holding the 32-bit
   value (an [int] has 63 bits on the 64-bit targets the build supports):
   an [int32] table entry is a pointer to a boxed value, one more load
   per byte. Only the result is boxed. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let digest_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest_sub";
  let table = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  (* in range: [pos, pos + len) was checked above, and the index is a byte *)
  for i = pos to pos + len - 1 do
    let idx = (!crc lxor Char.code (String.unsafe_get s i)) land 0xFF in
    crc := Array.unsafe_get table idx lxor (!crc lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest s = digest_sub s ~pos:0 ~len:(String.length s)

let to_hex crc = Printf.sprintf "%08lx" crc

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int32.of_string_opt ("0x" ^ s) with
    | Some _ as v when String.for_all (function
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
        | _ -> false) s -> v
    | _ -> None
