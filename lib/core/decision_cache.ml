module Metrics = Exsec_obs.Metrics

(* Kernel-wide mirrors of the per-shard stats below: the shard fields
   stay authoritative for [stats] (exact, read under the shard locks),
   while these feed the global metrics snapshot without extra
   locking. *)
let m_hits = Metrics.counter "cache.hits"
let m_misses = Metrics.counter "cache.misses"
let m_evictions = Metrics.counter "cache.evictions"
let m_invalidations = Metrics.counter "cache.invalidations"

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
  shards : int;
}

(* One domain's slice of the cache: a direct-mapped table kept in flat
   columns, one slot per index, plus its counters.  An object id of 0
   marks an empty slot ({!Meta} ids start at 1).  Every mutable field
   and every column is guarded by [lock], which is held only for a
   slot probe or a slot write, never across an evaluation. *)
type shard = {
  lock : Mutex.t;
  subjects : Subject.t array;
  object_ids : int array;
  modes : int array;
  decisions : Decision.t option array;
      (* stored as the option {!lookup} returns, so a hit allocates
         nothing *)
  meta_generations : int array;
  db_generations : int array;
  policy_generations : int array;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

(* Domains whose ids agree modulo the shard count share a shard; others
   share nothing.  A shard is built by the first domain that uses it,
   so its mutex, columns and counters sit in that domain's memory,
   not next to another domain's: two domains writing neighbouring
   mutexes or counters would contend for one cache line.  Its columns
   are filled with values that are never young ([Subject.placeholder],
   [None], 0), since [Array.make] of a large array with a young value
   forces a minor collection of every domain. *)
type t = {
  shards : shard option Atomic.t array;
  slots : int;  (* per shard, a power of two *)
}

let create ?shards ~capacity () =
  if capacity <= 0 then invalid_arg "Decision_cache.create: capacity must be positive";
  let shards =
    match shards with
    | Some n when n <= 0 -> invalid_arg "Decision_cache.create: shards must be positive"
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let wanted = (capacity + shards - 1) / shards in
  let rec pow2 n = if n >= wanted then n else pow2 (2 * n) in
  { shards = Array.init shards (fun _ -> Atomic.make None); slots = pow2 1 }

let shard_count cache = Array.length cache.shards
let capacity cache = cache.slots * shard_count cache

let own_shard cache =
  let cell = cache.shards.((Domain.self () :> int) mod shard_count cache) in
  match Atomic.get cell with
  | Some shard -> shard
  | None ->
    let slots = cache.slots in
    let shard =
      {
        lock = Mutex.create ();
        subjects = Array.make slots Subject.placeholder;
        object_ids = Array.make slots 0;
        modes = Array.make slots 0;
        decisions = Array.make slots None;
        meta_generations = Array.make slots 0;
        db_generations = Array.make slots 0;
        policy_generations = Array.make slots 0;
        size = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
        invalidations = 0;
      }
    in
    if Atomic.compare_and_set cell None (Some shard) then shard
    else Option.get (Atomic.get cell)

(* Multiplicative mixing of the key's three parts; the product's bits
   from 24 up, which depend on all of the key's low bits, index the
   table. *)
let slot cache ~subject ~object_id ~mode =
  let name = Principal.individual_name (Subject.principal subject) in
  let key = (Hashtbl.hash name * 0x2f) + (object_id lsl 3) + mode in
  (key * 0x9e3779b1) lsr 24 land (cache.slots - 1)

(* Everything a decision reads from the subject.  Physical equality
   settles the common case, where a caller reuses one subject value. *)
let same_subject a b =
  a == b
  || Bool.equal (Subject.is_trusted a) (Subject.is_trusted b)
     && String.equal
          (Principal.individual_name (Subject.principal a))
          (Principal.individual_name (Subject.principal b))
     && Security_class.equal (Subject.effective_class a) (Subject.effective_class b)
     && Option.equal Security_class.equal (Subject.integrity a) (Subject.integrity b)

let fold_shards cache init f =
  Array.fold_left
    (fun acc cell ->
      match Atomic.get cell with
      | None -> acc
      | Some shard -> Mutex.protect shard.lock (fun () -> f acc shard))
    init cache.shards

let size cache = fold_shards cache 0 (fun acc shard -> acc + shard.size)

let stats cache =
  let zero =
    {
      hits = 0;
      misses = 0;
      evictions = 0;
      invalidations = 0;
      size = 0;
      capacity = capacity cache;
      shards = shard_count cache;
    }
  in
  fold_shards cache zero (fun acc shard ->
      {
        acc with
        hits = acc.hits + shard.hits;
        misses = acc.misses + shard.misses;
        evictions = acc.evictions + shard.evictions;
        invalidations = acc.invalidations + shard.invalidations;
        size = acc.size + shard.size;
      })

let flush cache =
  fold_shards cache () (fun () shard ->
      shard.invalidations <- shard.invalidations + shard.size;
      Metrics.add m_invalidations shard.size;
      shard.size <- 0;
      Array.fill shard.object_ids 0 cache.slots 0)

(* The slot's decision when it holds this key under these generations.
   A slot holding this key under other generations is stale: it is
   emptied and counted as an invalidation. *)
let probe shard i ~subject ~object_id ~mode ~meta_generation ~db_generation
    ~policy_generation =
  if
    shard.object_ids.(i) <> object_id
    || shard.modes.(i) <> mode
    || not (same_subject shard.subjects.(i) subject)
  then None
  else if
    shard.meta_generations.(i) = meta_generation
    && shard.db_generations.(i) = db_generation
    && shard.policy_generations.(i) = policy_generation
  then shard.decisions.(i)
  else begin
    shard.object_ids.(i) <- 0;
    shard.size <- shard.size - 1;
    shard.invalidations <- shard.invalidations + 1;
    Metrics.incr m_invalidations;
    None
  end

let lookup cache ~subject ~(meta : Meta.t) ~mode ~meta_generation ~db_generation
    ~policy_generation =
  let shard = own_shard cache in
  let object_id = meta.Meta.id and mode = Access_mode.index mode in
  let i = slot cache ~subject ~object_id ~mode in
  Mutex.lock shard.lock;
  match
    probe shard i ~subject ~object_id ~mode ~meta_generation ~db_generation
      ~policy_generation
  with
  | exception e ->
    (* Only a malformed subject class can raise here. *)
    Mutex.unlock shard.lock;
    raise e
  | found ->
    (match found with
    | Some _ ->
      shard.hits <- shard.hits + 1;
      Metrics.incr m_hits
    | None ->
      shard.misses <- shard.misses + 1;
      Metrics.incr m_misses);
    Mutex.unlock shard.lock;
    found

(* Shared by every granted entry, so storing a grant allocates
   nothing either. *)
let some_granted = Some Decision.Granted

let store cache ~subject ~(meta : Meta.t) ~mode ~meta_generation ~db_generation
    ~policy_generation decision =
  let shard = own_shard cache in
  let object_id = meta.Meta.id and mode = Access_mode.index mode in
  let i = slot cache ~subject ~object_id ~mode in
  let entry =
    match decision with
    | Decision.Granted -> some_granted
    | Decision.Denied _ -> Some decision
  in
  Mutex.lock shard.lock;
  (* A live slot is always another key on one domain: a hit never
     stores, and a stale hit emptied the slot. *)
  if shard.object_ids.(i) = 0 then shard.size <- shard.size + 1
  else begin
    shard.evictions <- shard.evictions + 1;
    Metrics.incr m_evictions
  end;
  shard.subjects.(i) <- subject;
  shard.object_ids.(i) <- object_id;
  shard.modes.(i) <- mode;
  shard.decisions.(i) <- entry;
  shard.meta_generations.(i) <- meta_generation;
  shard.db_generations.(i) <- db_generation;
  shard.policy_generations.(i) <- policy_generation;
  Mutex.unlock shard.lock

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "{hits=%d; misses=%d; evictions=%d; invalidations=%d; size=%d; capacity=%d; shards=%d}"
    s.hits s.misses s.evictions s.invalidations s.size s.capacity s.shards
