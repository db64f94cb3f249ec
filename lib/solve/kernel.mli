(** The compiled search kernel: flat-array propagation with trailed undo,
    conflict-driven nogood learning and deterministic restarts.

    Drop-in replacements for the pruned enumerations — same model sets,
    same enumeration order, same [?limit] prefixes and anytime
    ([Partial]) semantics as {!Ordered.Stable.assumption_free_models} /
    {!Ordered.Stable.stable_models} / {!Ordered.Exhaustive.total_models}.
    The difference is mechanical: the ground program is compiled once
    into flat arrays ({!Flat}), propagation is maintained incrementally
    across the search tree instead of re-run from scratch at every node,
    and conflicts are analysed into nogoods that skip sibling subtrees
    which would conflict immediately.  Visited nodes are therefore never
    more than the pruned search's, and fewer on conflict-heavy programs.

    [?stats] exposes the shared search counters plus the solver-specific
    group ({!Ordered.Counters.t}: propagations, conflicts, learned and
    evicted nogoods, restarts), which only this engine moves.

    [?flat] supplies a precompiled {!Flat.t} for the given program (it
    must be [Flat.compile] of the same gop) so a caller that enumerates
    the same program repeatedly — the session cache — can skip the
    compile step. *)

val assumption_free_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  ?flat:Flat.t ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime

val stable_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  ?flat:Flat.t ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime
(** The maximal elements of {!assumption_free_models}, in its order.
    Maximality is computed on the kernel's encoded leaves by
    {!Ordered.Gop.Values.maximal} — the same filter as
    {!Ordered.Stable.stable_models} — and only the maximal leaves are
    converted to interpretations. *)

val total_models :
  ?limit:int ->
  ?budget:Ordered.Budget.t ->
  ?stats:Ordered.Counters.t ->
  ?flat:Flat.t ->
  Ordered.Gop.t ->
  Logic.Interp.t list Ordered.Budget.anytime
