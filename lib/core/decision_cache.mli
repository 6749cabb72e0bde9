(** Memoized protection decisions for the reference monitor.

    The monitor's hot path re-evaluates the full ACL walk plus the
    MAC/integrity lattice rules on every access; under the repeated,
    near-identical checks of a busy system (the same subjects touching
    the same objects in the same modes) much of that work recomputes a
    decision already taken.  This cache memoizes decisions under a key
    capturing {e everything} a decision reads from the request —
    subject principal, effective class, trusted bit, integrity label,
    object identity, access mode — and validates each entry against
    monotone {e generation counters} covering the mutable inputs:

    - {!Meta.generation}: bumped by every metadata mutation
      ([set_acl_raw], [set_klass_raw], [set_integrity_raw],
      [set_owner]), so ACL replacement or relabeling revokes the
      cached outcome;
    - {!Principal.Db.generation}: bumped by group-membership changes,
      so adding or removing a member revokes grants (and denials) that
      an ACL group entry produced;
    - the monitor's policy epoch ([policy_generation]): bumped by
      [set_policy], so an entry computed under the old policy can
      never validate under the new one — even if it was being computed
      while the policy changed and was stored after the accompanying
      {!flush}.

    A stale entry is never returned: validation failure empties the
    slot, counts an invalidation plus a miss, and the caller
    re-evaluates.

    {2 Shards chosen by domain}

    The cache is split into [shards] slices (default: the recognized
    domain count).  A call uses the shard of the calling domain,
    [Domain.self () mod shards], so two domains on different shards
    share no lock and no cache line of table data; domains whose ids
    collide modulo [shards] share one shard and its mutex.  The mutex
    is held only for one slot probe ({!lookup}) or one slot write
    ({!store}), {e never} across the evaluation between them.

    {2 Born-stale entries}

    The caller reads the three generations {e before} {!lookup}, runs
    the evaluation on a miss with no lock held, and files the result
    with {!store} under the generations it read.  Every mutator bumps
    its counter {e after} the mutation lands, so an entry racing with a
    mutation is born already-stale and fails validation on its next
    lookup (the full ordering argument lives in {!Meta} and DESIGN.md
    "Concurrency model").

    {2 Bounds and eviction}

    Each shard is a direct-mapped table of [capacity / shards] slots,
    rounded up to a power of two, kept in flat columns (subject,
    object id, mode, decision and the three generations).  The first
    domain to use a shard builds it, so one domain's table, mutex and
    counters never sit next to another's.  A key hashes to exactly one
    slot; storing into a slot that holds another key evicts it.  So an
    adversarial workload sweeping many (subject, object, mode) triples
    cannot exhaust memory — it only degrades the hit rate — and a hit
    allocates nothing.  Soundness is enforced by the differential
    oracle suite ([test/test_cache.ml]) and the multi-domain stress
    suite ([test/test_parallel.ml]). *)

type t

type stats = {
  hits : int;  (** lookups answered from a validated entry *)
  misses : int;  (** lookups that fell through to a full evaluation *)
  evictions : int;  (** live entries replaced by a store into their slot *)
  invalidations : int;
      (** entries dropped because a generation moved (or the cache was
          flushed by a policy change) *)
  size : int;  (** live entries, summed over shards *)
  capacity : int;  (** the bound [size] never exceeds *)
  shards : int;  (** slices, one per domain modulo the count *)
}

val create : ?shards:int -> capacity:int -> unit -> t
(** [shards] defaults to [Domain.recommended_domain_count ()]; each
    shard has [capacity / shards] slots rounded up to a power of two,
    so the aggregate bound never undercuts the request.  No table is
    allocated until a shard's first {!lookup} or {!store}.
    @raise Invalid_argument if [capacity <= 0] or [shards <= 0]. *)

val shard_count : t -> int
val capacity : t -> int
val size : t -> int
val stats : t -> stats
(** Aggregated over shards, each read under its own lock.  Counters
    are exact: [hits + misses] equals the number of {!lookup} calls
    completed, from any domain. *)

val flush : t -> unit
(** Drop every entry (counting them as invalidations); used when an
    input without its own generation counter changes wholesale.  Note
    that flushing alone cannot revoke entries {e being computed}
    during the flush — that is what the [policy_generation] validation
    is for. *)

val lookup :
  t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> meta_generation:int ->
  db_generation:int -> policy_generation:int -> Decision.t option
(** The cached decision when the calling domain's shard holds this key
    under exactly these generations (a hit); [None] otherwise (a
    miss).  The key matches when its object id and mode match and its
    subject is physically the caller's or agrees with it on principal
    name, effective class, trusted bit and integrity label.  A key
    found under other generations is dropped (an invalidation).  A
    hit allocates nothing. *)

val store :
  t -> subject:Subject.t -> meta:Meta.t -> mode:Access_mode.t -> meta_generation:int ->
  db_generation:int -> policy_generation:int -> Decision.t -> unit
(** File a decision evaluated after a missed {!lookup}, under the
    generations read {e before} that lookup, in the calling domain's
    shard; evicts whatever other key held the slot. *)

val pp_stats : Format.formatter -> stats -> unit
