(** Hash tables keyed on machine ints.

    The store and engine key their hot tables on ints: packed
    [(instance id, symbol)] keys from {!Symbol.pack}, block ids and
    instance ids.  This is [Hashtbl.Make] over ints with {!hash}, so a
    lookup neither calls the polymorphic [caml_hash] nor compares
    through [compare_val]. *)

(** [hash k] — multiplicative (Fibonacci) hashing: [k] times an odd
    64-bit constant, keeping the product's high 31 bits.  Non-negative.

    [Hashtbl] picks a bucket from the hash's {e low} bits.  A packed
    key keeps its symbol in its low 20 bits, so the identity hash would
    put every key of one attribute or relationship into one bucket.
    The high bits of the product depend on every bit of [k]. *)
val hash : int -> int

include Hashtbl.S with type key = int
