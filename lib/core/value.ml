module Vtime = Cactis_util.Vtime

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Time of Vtime.t
  | Arr of t array
  | Rec of (string * t) list

let kind_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Time _ -> "time"
  | Arr _ -> "array"
  | Rec _ -> "record"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Time x, Time y -> Vtime.equal x y
  | Arr x, Arr y ->
    Array.length x = Array.length y
    &&
    let rec all i = i >= Array.length x || (equal x.(i) y.(i) && all (i + 1)) in
    all 0
  | Rec x, Rec y ->
    List.length x = List.length y
    && List.for_all2 (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy) x y
  | (Null | Bool _ | Int _ | Float _ | Str _ | Time _ | Arr _ | Rec _), _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Time _ -> 5
  | Arr _ -> 6
  | Rec _ -> 7

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Time x, Time y -> Vtime.compare x y
  | Arr x, Arr y ->
    let n = Stdlib.min (Array.length x) (Array.length y) in
    let rec go i =
      if i >= n then Int.compare (Array.length x) (Array.length y)
      else
        let c = compare x.(i) y.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  | Rec x, Rec y ->
    let cmp (nx, vx) (ny, vy) =
      let c = String.compare nx ny in
      if c <> 0 then c else compare vx vy
    in
    List.compare cmp x y
  | _, _ -> Int.compare (rank a) (rank b)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Time t -> Vtime.pp fmt t
  | Arr a ->
    Format.fprintf fmt "[@[%a@]]"
      (Format.pp_print_seq ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp)
      (Array.to_seq a)
  | Rec fields ->
    let pp_field fmt (name, v) = Format.fprintf fmt "%s = %a" name pp v in
    Format.fprintf fmt "{@[%a@]}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ";@ ") pp_field)
      fields

let to_string v = Format.asprintf "%a" pp v

let shape_error expected v =
  Errors.type_error "expected %s, got %s (%s)" expected (kind_name v) (to_string v)

let as_bool = function Bool b -> b | v -> shape_error "bool" v
let as_int = function Int i -> i | v -> shape_error "int" v

let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> shape_error "float" v

let as_string = function Str s -> s | v -> shape_error "string" v
let as_time = function Time t -> t | v -> shape_error "time" v
let as_array = function Arr a -> a | v -> shape_error "array" v

let field v name =
  match v with
  | Rec fields -> (
    match List.assoc_opt name fields with
    | Some x -> x
    | None -> Errors.type_error "record has no field %s in %s" name (to_string v))
  | _ -> shape_error "record" v

let numeric2 name fi ff a b =
  match (a, b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (ff (as_float a) (as_float b))
  | _ -> Errors.type_error "%s: cannot combine %s and %s" name (kind_name a) (kind_name b)

let add a b =
  match (a, b) with
  | Str x, Str y -> Str (x ^ y)
  | Time x, Float d -> Time (Vtime.add_days x d)
  | Time x, Int d -> Time (Vtime.add_days x (float_of_int d))
  | Time x, Time y ->
    (* Figure 1 sums a latest-dependency time with a local duration; a
       duration is represented as days-since-epoch, so time+time adds the
       day counts. *)
    Time (Vtime.of_days (Vtime.to_days x +. Vtime.to_days y))
  | _ -> numeric2 "add" ( + ) ( +. ) a b

let sub a b =
  match (a, b) with
  | Time x, Time y -> Float (Vtime.to_days x -. Vtime.to_days y)
  | Time x, Float d -> Time (Vtime.add_days x (-.d))
  | Time x, Int d -> Time (Vtime.add_days x (-.float_of_int d))
  | _ -> numeric2 "sub" ( - ) ( -. ) a b

let mul a b = numeric2 "mul" ( * ) ( *. ) a b

let div a b =
  match (a, b) with
  | Int _, Int 0 -> Errors.type_error "div: division by zero"
  | _ -> numeric2 "div" ( / ) ( /. ) a b

let neg = function
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> shape_error "number" v

let lt a b = compare a b < 0
let le a b = compare a b <= 0

(* Numbers fold from [Int 0] (so a lone [Float (-0.)] still sums to
   [0.]); anything else folds from its first element, since [Int 0] has
   no sum with a time or a string. *)
let sum = function
  | (Int _ | Float _) :: _ as vs -> List.fold_left add (Int 0) vs
  | v :: rest -> List.fold_left add v rest
  | [] -> Int 0
let count vs = Int (List.length vs)

let extremum name better ?default vs =
  match vs with
  | [] -> (
    match default with
    | Some d -> d
    | None -> Errors.type_error "%s of empty collection with no default" name)
  | v :: rest -> List.fold_left (fun acc x -> if better x acc then x else acc) v rest

let max_ ?default vs = extremum "max" (fun x acc -> compare x acc > 0) ?default vs
let min_ ?default vs = extremum "min" (fun x acc -> compare x acc < 0) ?default vs
let all_ vs = Bool (List.for_all (fun v -> as_bool v) vs)
let any_ vs = Bool (List.exists (fun v -> as_bool v) vs)
