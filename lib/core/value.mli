(** Atomic values.

    "A Cactis database consists of a collection of abstract objects,
    atomic objects (such as strings, reals, integers, booleans, arrays,
    and records) …" (§2.1).  Attributes "may be of any C data type,
    except pointer"; we model the same surface: booleans, integers,
    floats, strings, times, arrays and records, plus [Null] for
    never-initialized slots. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Time of Cactis_util.Vtime.t
  | Arr of t array
  | Rec of (string * t) list

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Projections; raise {!Errors.Type_error} on shape mismatch. *)

val as_bool : t -> bool
val as_int : t -> int
val as_float : t -> float

(** [as_float] also accepts [Int], widening. *)

val as_string : t -> string
val as_time : t -> Cactis_util.Vtime.t
val as_array : t -> t array

(** [field v name] projects a record field.
    @raise Errors.Type_error if [v] is not a record or lacks [name]. *)
val field : t -> string -> t

(** Type name used in error messages ("int", "record", …). *)
val kind_name : t -> string

(** Arithmetic / comparison helpers used by rule expressions.  Numeric
    operators promote [Int] to [Float] when mixed; [add] concatenates
    strings and takes [later-of] on times when both sides are times. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val lt : t -> t -> bool
val le : t -> t -> bool

(** Aggregates over value lists (used for values transmitted across
    relationships).  Empty input yields the natural unit: [sum]=0,
    [count]=0, [max_]/[min_] raise unless [default] is given,
    [all_]=true, [any_]=false.  [sum] adds with {!add}, so it also
    totals times (day counts) and concatenates strings. *)

val sum : t list -> t
val count : t list -> t
val max_ : ?default:t -> t list -> t
val min_ : ?default:t -> t list -> t
val all_ : t list -> t
val any_ : t list -> t
