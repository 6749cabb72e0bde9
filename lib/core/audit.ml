module Metrics = Exsec_obs.Metrics

let m_records = Metrics.counter "audit.records"
let m_record_ns = Metrics.histogram ~sample_shift:4 "audit.record_ns"

type event = {
  seq : int;
  subject : Subject.t;
  object_name : string;
  object_id : int;
  object_class : Security_class.t;
  mode : Access_mode.t;
  decision : Decision.t;
}

(* The pipeline is sharded so concurrent recording domains do not
   funnel through one global mutex: each shard carries its own ring,
   cursor and grant/deny counters behind its own lock, while a single
   atomic sequence counter orders events across shards.  A record
   picks its shard by hashing the recording domain and the subject, so
   one sequential stream (one domain, one subject) lands in one shard
   and sees the classic exact ring semantics, while independent
   domains take disjoint locks. *)
type shard = {
  lock : Mutex.t;
  ring : event option array;
  mutable cursor : int;  (* events ever appended to this shard *)
  mutable granted : int;
  mutable denied : int;
}

type t = {
  shards : shard array;
  capacity : int;  (* per-shard ring capacity *)
  next_seq : int Atomic.t;
}

let create ?(capacity = 4096) ?shards () =
  if capacity <= 0 then invalid_arg "Audit.create: capacity must be positive";
  let shard_count =
    match shards with
    | Some n when n <= 0 -> invalid_arg "Audit.create: shards must be positive"
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  {
    shards =
      Array.init shard_count (fun _ ->
          {
            lock = Mutex.create ();
            ring = Array.make capacity None;
            cursor = 0;
            granted = 0;
            denied = 0;
          });
    capacity;
    next_seq = Atomic.make 0;
  }

let shard_count log = Array.length log.shards
let capacity log = log.capacity

(* Decorrelate with a multiplicative mix, as in Decision_cache: the
   raw domain id and subject hash are small and clustered. *)
let shard_of log ~subject =
  let key =
    Hashtbl.hash (Principal.individual_name (Subject.principal subject))
    + (31 * (Domain.self () :> int))
  in
  (key * 0x9e3779b1) lsr 16 mod Array.length log.shards

let record log ~subject ~object_name ~object_id ~object_class ~mode decision =
  Metrics.incr m_records;
  let t0 = Metrics.start_timing m_record_ns in
  (* The sequence stamp and the event record are built before any lock
     is taken; the critical section is exactly the ring slot and
     counter writes. *)
  let seq = Atomic.fetch_and_add log.next_seq 1 in
  let event = { seq; subject; object_name; object_id; object_class; mode; decision } in
  let shard = log.shards.(shard_of log ~subject) in
  Mutex.protect shard.lock (fun () ->
      shard.ring.(shard.cursor mod log.capacity) <- Some event;
      shard.cursor <- shard.cursor + 1;
      if Decision.is_granted decision then shard.granted <- shard.granted + 1
      else shard.denied <- shard.denied + 1);
  Metrics.stop_timing m_record_ns t0

(* [tail ~count] gathers at most [count] events per shard — each
   shard's newest are its last, so nothing older than a shard's own
   newest [count] can survive the global merge — then merges and trims
   once.  The work is O(shards * count) after the per-shard scans,
   independent of total retention. *)
let tail log ~count =
  let count = Stdlib.max 0 count in
  if count = 0 then []
  else begin
    let collected =
      Array.fold_left
        (fun acc shard ->
          Mutex.protect shard.lock (fun () ->
              let lo =
                Stdlib.max (shard.cursor - count)
                  (Stdlib.max 0 (shard.cursor - log.capacity))
              in
              let out = ref acc in
              for i = shard.cursor - 1 downto lo do
                match shard.ring.(i mod log.capacity) with
                | Some event -> out := event :: !out
                | None -> ()
              done;
              !out))
        [] log.shards
    in
    let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) collected in
    let surplus = List.length sorted - count in
    if surplus <= 0 then sorted
    else List.filteri (fun i _ -> i >= surplus) sorted
  end

(* Each shard's ring holds its own newest [capacity] events, so their
   union holds the global newest [capacity]: retention is exactly
   [capacity] however many shards there are. *)
let events log = tail log ~count:log.capacity

let fold_shards log init f =
  Array.fold_left
    (fun acc shard -> Mutex.protect shard.lock (fun () -> f acc shard))
    init log.shards

let granted_total log = fold_shards log 0 (fun acc shard -> acc + shard.granted)
let denied_total log = fold_shards log 0 (fun acc shard -> acc + shard.denied)

let total log =
  fold_shards log 0 (fun acc shard -> acc + shard.granted + shard.denied)

let clear log =
  Array.iter
    (fun shard ->
      Mutex.protect shard.lock (fun () ->
          Array.fill shard.ring 0 log.capacity None;
          shard.cursor <- 0;
          shard.granted <- 0;
          shard.denied <- 0))
    log.shards;
  Atomic.set log.next_seq 0

let pp_event ppf event =
  Format.fprintf ppf "#%d %a %a %s: %a" event.seq Subject.pp event.subject
    Access_mode.pp event.mode event.object_name Decision.pp event.decision
