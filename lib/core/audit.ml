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

(* The pipeline is sharded by recording domain, so concurrent domains
   do not funnel through one mutex: each shard carries its own ring,
   cursor and grant/deny counters behind its own lock, while a single
   atomic sequence counter orders events across shards.  The ring is
   kept as columns, so recording writes seven slots and allocates
   nothing; an [event] is built only when read. *)
type shard = {
  lock : Mutex.t;
  seqs : int array;
  subjects : Subject.t array;
  names : string array;
  ids : int array;
  classes : Security_class.t array;
  modes : Access_mode.t array;
  decisions : Decision.t array;
  mutable cursor : int;  (* events ever appended to this shard *)
  mutable granted : int;
  mutable denied : int;
}

(* Domains whose ids agree modulo the shard count share a shard.  A
   shard is built by its first record, on the recording domain, so its
   mutex, columns and counters sit in that domain's memory rather than
   next to another domain's (neighbouring mutexes and counters written
   by two domains would contend for one cache line).  Its columns are
   filled with the record's immediate values and with pointers that
   are never young, since [Array.make] of a large array with a young
   value forces a minor collection of every domain. *)
type t = {
  shards : shard option Atomic.t array;
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
    shards = Array.init shard_count (fun _ -> Atomic.make None);
    capacity;
    next_seq = Atomic.make 0;
  }

let shard_count log = Array.length log.shards
let capacity log = log.capacity

let record log ~subject ~object_name ~object_id ~object_class ~mode decision =
  Metrics.incr m_records;
  let t0 = Metrics.start_timing m_record_ns in
  let seq = Atomic.fetch_and_add log.next_seq 1 in
  let cell = log.shards.((Domain.self () :> int) mod Array.length log.shards) in
  let shard =
    match Atomic.get cell with
    | Some shard -> shard
    | None ->
      let n = log.capacity in
      let fresh =
        {
          lock = Mutex.create ();
          seqs = Array.make n seq;
          subjects = Array.make n Subject.placeholder;
          names = Array.make n "";
          ids = Array.make n object_id;
          classes = Array.make n (Subject.clearance Subject.placeholder);
          modes = Array.make n mode;
          decisions = Array.make n Decision.Granted;
          cursor = 0;
          granted = 0;
          denied = 0;
        }
      in
      if Atomic.compare_and_set cell None (Some fresh) then fresh
      else Option.get (Atomic.get cell)
  in
  Mutex.lock shard.lock;
  let i = shard.cursor mod log.capacity in
  shard.seqs.(i) <- seq;
  shard.subjects.(i) <- subject;
  shard.names.(i) <- object_name;
  shard.ids.(i) <- object_id;
  shard.classes.(i) <- object_class;
  shard.modes.(i) <- mode;
  shard.decisions.(i) <- decision;
  shard.cursor <- shard.cursor + 1;
  if Decision.is_granted decision then shard.granted <- shard.granted + 1
  else shard.denied <- shard.denied + 1;
  Mutex.unlock shard.lock;
  Metrics.stop_timing m_record_ns t0

let event_at shard i =
  {
    seq = shard.seqs.(i);
    subject = shard.subjects.(i);
    object_name = shard.names.(i);
    object_id = shard.ids.(i);
    object_class = shard.classes.(i);
    mode = shard.modes.(i);
    decision = shard.decisions.(i);
  }

let fold_shards log init f =
  Array.fold_left
    (fun acc cell ->
      match Atomic.get cell with
      | None -> acc
      | Some shard -> Mutex.protect shard.lock (fun () -> f acc shard))
    init log.shards

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
      fold_shards log [] (fun acc shard ->
          let lo = Stdlib.max 0 (shard.cursor - Stdlib.min count log.capacity) in
          let out = ref acc in
          for i = shard.cursor - 1 downto lo do
            out := event_at shard (i mod log.capacity) :: !out
          done;
          !out)
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

let granted_total log = fold_shards log 0 (fun acc shard -> acc + shard.granted)
let denied_total log = fold_shards log 0 (fun acc shard -> acc + shard.denied)

let total log =
  fold_shards log 0 (fun acc shard -> acc + shard.granted + shard.denied)

(* The columns keep their old values; a zero cursor hides them. *)
let clear log =
  fold_shards log () (fun () shard ->
      shard.cursor <- 0;
      shard.granted <- 0;
      shard.denied <- 0);
  Atomic.set log.next_seq 0

let pp_event ppf event =
  Format.fprintf ppf "#%d %a %a %s: %a" event.seq Subject.pp event.subject
    Access_mode.pp event.mode event.object_name Decision.pp event.decision
