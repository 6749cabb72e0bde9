(* The traced run's spans, recorded by the benchmark around its own
   calls into each layer (nothing inside the library is instrumented).

   Every op is one root span; the layer calls the benchmark makes for
   it are its children.  A recorder belongs to one domain and is read
   only after that domain has been joined.  It folds every span into
   per-layer totals as it closes, so self time needs no second pass:
   a child span has no children of its own, so its self time is its
   duration, and a root's self time is its duration minus its
   children's — the share of an op no layer boundary accounts for.
   The first [capacity] spans are also kept verbatim and written out
   when the run ends. *)

let names =
  [|
    "op";
    "wire.encode";
    "transport.send";
    "transport.recv";
    "wire.decode";
    "resolver.resolve";
    "memfs.read";
    "kernel.call";
    "kernel.call_handle";
    "linker.linked_call";
    "resolver.set_acl";
    "resolver.set_class";
    "kernel.batch_principals";
    "principal.snapshot";
    "kernel.revoke_by_principal";
    "linker.unload";
    "linker.link";
    "kernel.advance_cert_epoch";
    "kernel.sweep_expired_certificates";
    "monitor.set_policy";
    "server.recv_wait";
    "server.busy";
    "server.send";
  |]

let layer name =
  let rec find i =
    if i = Array.length names then invalid_arg ("Spans.layer " ^ name)
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0

let root = 0
let wire_encode = layer "wire.encode"
let transport_send = layer "transport.send"
let transport_recv = layer "transport.recv"
let wire_decode = layer "wire.decode"
let resolve = layer "resolver.resolve"
let memfs_read = layer "memfs.read"
let kernel_call = layer "kernel.call"
let call_handle = layer "kernel.call_handle"
let linked_call = layer "linker.linked_call"
let set_acl = layer "resolver.set_acl"
let set_class = layer "resolver.set_class"
let batch = layer "kernel.batch_principals"
let snapshot = layer "principal.snapshot"
let revoke = layer "kernel.revoke_by_principal"
let unload = layer "linker.unload"
let link = layer "linker.link"
let advance = layer "kernel.advance_cert_epoch"
let sweep = layer "kernel.sweep_expired_certificates"
let set_policy = layer "monitor.set_policy"
let server_recv_wait = layer "server.recv_wait"
let server_busy = layer "server.busy"
let server_send = layer "server.send"

let capacity = 20_000

type t = {
  domain : int;
  total : int array;  (** per layer: summed duration, ns *)
  count : int array;
  mutable covered : int;  (** summed child time inside closed roots *)
  mutable pending : int;  (** child time inside the open root *)
  s_op : int array;
  s_layer : int array;
  s_start : int array;
  s_stop : int array;
  mutable kept : int;
}

let create domain =
  let n = Array.length names in
  {
    domain;
    total = Array.make n 0;
    count = Array.make n 0;
    covered = 0;
    pending = 0;
    s_op = Array.make capacity 0;
    s_layer = Array.make capacity 0;
    s_start = Array.make capacity 0;
    s_stop = Array.make capacity 0;
    kept = 0;
  }

let keep t ~op layer start stop =
  let k = t.kept in
  if k < capacity then begin
    t.s_op.(k) <- op;
    t.s_layer.(k) <- layer;
    t.s_start.(k) <- start;
    t.s_stop.(k) <- stop;
    t.kept <- k + 1
  end

let add t layer d =
  t.total.(layer) <- t.total.(layer) + d;
  t.count.(layer) <- t.count.(layer) + 1

(* A span with no parent in this recorder (the server side of a served
   request, joined to the client's root by [op] = the request's seq). *)
let span t ~op layer start stop =
  add t layer (stop - start);
  keep t ~op layer start stop

let child t ~op layer start stop =
  let d = stop - start in
  add t layer d;
  t.pending <- t.pending + d;
  keep t ~op layer start stop

let close_root t ~op start stop =
  add t root (stop - start);
  t.covered <- t.covered + t.pending;
  t.pending <- 0;
  keep t ~op root start stop

let total ts layer = List.fold_left (fun a t -> a + t.total.(layer)) 0 ts
let count ts layer = List.fold_left (fun a t -> a + t.count.(layer)) 0 ts

let mean_ns ts layer =
  let n = count ts layer in
  if n = 0 then 0.0 else float_of_int (total ts layer) /. float_of_int n

(* The part of the root spans that no child span covers. *)
let untraced_share ts =
  let roots = total ts root in
  if roots = 0 then 0.0
  else
    let covered = List.fold_left (fun a t -> a + t.covered) 0 ts in
    float_of_int (roots - covered) /. float_of_int roots

(* One JSON object per kept span; [op] joins a root to its children,
   and a served request's server spans to the client's by seq. *)
let write path ts =
  let oc = open_out path in
  List.iter
    (fun t ->
      for k = 0 to t.kept - 1 do
        Printf.fprintf oc
          "{\"domain\":%d,\"op\":%d,\"layer\":\"%s\",\"start_ns\":%d,\"dur_ns\":%d}\n" t.domain
          t.s_op.(k) names.(t.s_layer.(k)) t.s_start.(k)
          (t.s_stop.(k) - t.s_start.(k))
      done)
    ts;
  close_out oc

(* Each layer's summed span time as a share of the summed root time,
   as a JSON object (layers that recorded nothing are left out). *)
let shares_json ts =
  let roots = total ts root in
  let parts = ref [] in
  for layer = Array.length names - 1 downto 1 do
    if count ts layer > 0 && roots > 0 then
      parts :=
        Printf.sprintf "\"%s\": %.4f" names.(layer)
          (float_of_int (total ts layer) /. float_of_int roots)
        :: !parts
  done;
  "{" ^ String.concat ", " !parts ^ "}"
