(* floor (2^63 / golden ratio), odd.  It exceeds max_int, so the literal
   reads as a negative int; ints multiply modulo 2^63 either way. *)
let golden = 0x4F1BBCDCBFA53E0B

let hash k = (k * golden) lsr 32

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
