(** Multicore execution primitives (OCaml 5 domains).

    Experiment trials are embarrassingly parallel — each builds its own
    estimator from its own seed — so the accuracy/failure-rate experiments
    fan them out across domains.  Only use with functions that touch no
    shared mutable state (every estimator in this library is
    self-contained). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [domains] defaults to
    [min 4 (recommended_domain_count - 1)].  Work is assigned by an atomic
    counter — each domain repeatedly claims the next unprocessed index — so
    skewed workloads (cost monotone in index) balance instead of piling onto
    one domain as contiguous slicing did; results are written back at their
    original index, so order is preserved.  Falls back to [List.map] for a
    single domain or short lists.  Exceptions in any worker re-raise in the
    caller. *)

val default_domains : unit -> int
