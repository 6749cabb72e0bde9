type t = {
  epoch : int;
  db_generation : int;
  chain : Meta.t array;  (* root first, target last; empty = unresolved *)
  generations : int array;  (* of each, read before the decision *)
}

let read monitor namespace path =
  let epoch = Reference_monitor.policy_epoch monitor in
  let db_generation = Principal.Db.generation (Reference_monitor.db monitor) in
  let unresolved = { epoch; db_generation; chain = [||]; generations = [||] } in
  match Namespace.chain namespace path with
  | None -> unresolved
  | Some nodes -> (
    let chain = Array.of_list (List.map Namespace.meta nodes) in
    let generations = Array.map Meta.generation chain in
    (* Confirm the target is still linked AFTER reading the generations:
       a removal unlinks before it bumps, so either the bump lands
       above what was read here, or the re-walk below no longer finds
       the node.  Interior nodes cannot be removed while the target
       sits under them, so the target alone witnesses the chain. *)
    let target = List.hd (List.rev nodes) in
    match Namespace.find namespace path with
    | Ok node when node == target -> { epoch; db_generation; chain; generations }
    | Ok _ | Error _ -> unresolved)

(* Top-level (not a local closure) so the check allocates nothing.  The
   annotations keep it monomorphic — integer compares, not polymorphic
   equality — and the generation is read from the field directly
   rather than through a call to [Meta.generation] per node. *)
let rec generations_hold (chain : Meta.t array) (generations : int array) i =
  i < 0
  || Atomic.get (Array.unsafe_get chain i).Meta.generation = Array.unsafe_get generations i
     && generations_hold chain generations (i - 1)

let chain_holds stamp =
  let n = Array.length stamp.chain in
  n > 0 && generations_hold stamp.chain stamp.generations (n - 1)

let fresh_except_db monitor stamp =
  Reference_monitor.policy_epoch monitor = stamp.epoch && chain_holds stamp

let fresh monitor stamp =
  Reference_monitor.policy_epoch monitor = stamp.epoch
  && Principal.Db.generation (Reference_monitor.db monitor) = stamp.db_generation
  && chain_holds stamp

let db_generation stamp = stamp.db_generation
let metas stamp = Array.to_list stamp.chain

let pp ppf stamp =
  Format.fprintf ppf "epoch %d, db generation %d, %d chain node(s)" stamp.epoch
    stamp.db_generation (Array.length stamp.chain)
