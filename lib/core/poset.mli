(** The component partial order of an ordered program (paper, Definition 1).

    Components are identified by dense integer ids.  [lt a b] is the
    paper's [a < b]: [a] is {e more specific} (lower) than [b] and inherits
    [b]'s rules; rules of [a] may overrule rules of [b].  The order is
    strict: irreflexive, antisymmetric, transitive (we store the transitive
    closure of the declared pairs and reject cycles).

    {b Representation.}  The closure is stored as one sorted array of
    strict ancestors per id (for a component [C], the rest of [C*]),
    plus each id's {!rank}.  A viewpoint usually sees a handful of
    ancestors, so this is far smaller than an [n × n] matrix:
    {!make} costs O(n log n + p + A log A) time and O(n + A) words, where [p]
    is the number of declared pairs and [A] the total number of
    ancestor entries (sum of [|C*| - 1]).  {!lt} is a binary search,
    O(log |ancestors a|); {!above} is O(|C*|); {!below}, {!minimal},
    {!maximal} and {!covers} walk every id. *)

type t

val make : n:int -> pairs:(int * int) list -> (t, string) result
(** [make ~n ~pairs] builds the order over ids [0 .. n-1] from declared
    pairs [(lo, hi)] meaning [lo < hi].  Returns [Error _] if the closure
    would make some [a < a] (a cycle; the message names the smallest id
    on a cycle), or if an id is out of range (the message names the first
    offending pair). *)

val size : t -> int

val lt : t -> int -> int -> bool
(** Strict order [a < b] (transitively closed). *)

val leq : t -> int -> int -> bool
(** [a < b] or [a = b]. *)

val incomparable : t -> int -> int -> bool
(** The paper's [a <> b]: distinct and neither [a < b] nor [b < a]. *)

val rank : t -> int -> int
(** Length of the longest chain strictly below the id: [0] for minimal
    ids, otherwise one more than the highest rank below. *)

val above : t -> int -> int list
(** [above t a]: all [b] with [a <= b], ascending (includes [a]) — the
    components whose rules are visible from [a] (used to form [C*]). *)

val below : t -> int -> int list
(** All [b] with [b <= a], ascending (includes [a]). *)

val minimal : t -> int list
(** Ids with nothing below them (most specific components). *)

val maximal : t -> int list
(** Ids with nothing above them (most general components). *)

val covers : t -> (int * int) list
(** The covering relation (transitive reduction): the pairs [(a, b)] with
    [a < b] and no [c] such that [a < c < b], ordered by [a], then [b]. *)
