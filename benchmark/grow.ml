(** Arrays indexed by command id that grow on write; unwritten slots read
    as the default.  Command ids are dense, so this is the cheapest
    per-command record. *)

type 'a t = { mutable a : 'a array; default : 'a }

let create default = { a = Array.make 1024 default; default }

let get t i = if i < Array.length t.a then t.a.(i) else t.default

let set t i v =
  let n = Array.length t.a in
  if i >= n then begin
    let a = Array.make (max (2 * n) (i + 1)) t.default in
    Array.blit t.a 0 a 0 n;
    t.a <- a
  end;
  t.a.(i) <- v

(** The first [n] slots as a fresh array. *)
let prefix t n = Array.init n (get t)
