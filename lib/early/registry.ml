open Psmr_platform

type impl = Coarse | Fine | Lockfree | Fifo | Striped of int | Indexed
type backend = Cos of impl | Early of Early_intf.config

let paper = [ Coarse; Fine; Lockfree ]

(* Segment capacity (nodes per lock) of a bare "striped". *)
let default_stripe = 16

let all =
  List.map
    (fun i -> Cos i)
    [ Coarse; Fine; Lockfree; Fifo; Striped default_stripe; Indexed ]
  @ [ Early Early_intf.conservative; Early Early_intf.optimistic ]

let to_string = function
  | Cos Coarse -> "coarse-grained"
  | Cos Fine -> "fine-grained"
  | Cos Lockfree -> "lock-free"
  | Cos Fifo -> "fifo"
  | Cos (Striped k) -> Printf.sprintf "striped-%d" k
  | Cos Indexed -> "indexed"
  | Early { classes; optimistic } -> (
      let base = if optimistic then "early-opt" else "early" in
      match classes with
      | None -> base
      | Some k -> Printf.sprintf "%s-%d" base k)

let of_string s =
  let s = String.map (function '_' -> '-' | c -> Char.lowercase_ascii c) s in
  (* The positive count [k] of a "<prefix>-<k>" name. *)
  let count prefix =
    let n = String.length prefix + 1 in
    if String.length s > n && String.sub s 0 n = prefix ^ "-" then
      match int_of_string_opt (String.sub s n (String.length s - n)) with
      | Some k when k > 0 -> Some k
      | Some _ | None -> None
    else None
  in
  let early ?classes optimistic = Some (Early { classes; optimistic }) in
  match s with
  | "coarse" | "coarse-grained" -> Some (Cos Coarse)
  | "fine" | "fine-grained" -> Some (Cos Fine)
  | "lockfree" | "lock-free" -> Some (Cos Lockfree)
  | "fifo" | "sequential" -> Some (Cos Fifo)
  | "striped" -> Some (Cos (Striped default_stripe))
  | "indexed" -> Some (Cos Indexed)
  | "early" -> early false
  | "early-opt" -> early true
  | _ -> (
      match (count "striped", count "early-opt", count "early") with
      | Some k, _, _ -> Some (Cos (Striped k))
      | None, Some k, _ -> early ~classes:k true
      | None, None, Some k -> early ~classes:k false
      | None, None, None -> None)

let is_optimistic = function
  | Early { optimistic; _ } -> optimistic
  | Cos _ -> false

let classes = function Early { classes; _ } -> classes | Cos _ -> None

let instantiate_cos (type c) impl (module P : Platform_intf.S)
    (module C : Psmr_cos.Cos_intf.KEYED_COMMAND with type t = c) :
    (module Psmr_cos.Cos_intf.S with type cmd = c) =
  let open Psmr_cos in
  match impl with
  | Coarse -> (module Coarse.Make (P) (C))
  | Fine -> (module Fine.Make (P) (C))
  | Lockfree -> (module Lockfree.Make (P) (C))
  | Fifo -> (module Fifo.Make (P) (C))
  | Striped k ->
      let module Size = struct
        let segment_capacity = k
      end in
      (module Striped.Make_sized (Size) (P) (C))
  | Indexed -> (module Indexed.Make (P) (C))

let instantiate (type c) backend (module P : Platform_intf.S)
    (module C : Psmr_cos.Cos_intf.KEYED_COMMAND with type t = c) :
    (module Psmr_sched.Sched_intf.BACKEND with type cmd = c) =
  match backend with
  | Cos impl ->
      let (module Cos) = instantiate_cos impl (module P) (module C) in
      (module Psmr_sched.Scheduler.Make (P) (Cos))
  | Early cfg ->
      let module D = Dispatch.Make (P) (C) in
      (module struct
        include D

        let start ?fault ?max_size ~workers ~execute () =
          D.start_full ?fault ?max_size ?classes:cfg.classes ~workers ~execute
            ()
      end)
