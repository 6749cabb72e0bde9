(** Staleness stamps for reusable protection decisions.

    A capability-handle grant and a certificate's import proof both
    reuse one decision across many calls.  Each records, in a stamp,
    every generation counter the decision read: the policy epoch, the
    principal-database generation, and the {!Meta.generation} of every
    node on the path's resolution chain ({!Namespace.chain}).  The
    decision may be reused exactly while the stamp stays {!fresh}.

    {2 Ordering}

    {!read} is the one pre-read.  Call it {e before} the decision it
    will vouch for.  Every mutator writes its data first and bumps its
    counter after ({!Meta}, {!Principal.Db}, {!Reference_monitor.set_policy},
    {!Namespace.remove}).  A mutation racing with the decision therefore
    lands a bump above the recorded value: the artifact is born stale
    and fails closed on its next check, never wrongly valid.

    The chain generations are read while their nodes are linked: after
    reading them, {!read} confirms the path still resolves to the same
    target node, and records an unresolved stamp otherwise.  Because
    removal bumps the removed node's generation, a fresh stamp implies
    the path still resolves to the node it recorded — no separate
    target-identity check is needed. *)

type t

val read : Reference_monitor.t -> 'a Namespace.t -> Path.t -> t
(** Read, in this order, the policy epoch, the principal-database
    generation, then the generation of every node on the path's
    chain, root first.  When the path does not resolve (or its target
    was unlinked during the read) the stamp records an empty chain and
    is never fresh. *)

val fresh : Reference_monitor.t -> t -> bool
(** [true] while the policy epoch, the database generation and every
    recorded chain generation still hold.  Allocates nothing. *)

val fresh_except_db : Reference_monitor.t -> t -> bool
(** {!fresh} without the database-generation compare, for artifacts
    that validate principal state through their own scoped dependency
    set instead (certificates, see [Exsec_analysis.Certificate]). *)

val db_generation : t -> int
(** The database generation read before the decision.  A scoped
    dependency stamped above it was mutated while the decision ran. *)

val metas : t -> Meta.t list
(** The recorded chain's metadata, root first; [[]] for an unresolved
    stamp. *)

val pp : Format.formatter -> t -> unit
