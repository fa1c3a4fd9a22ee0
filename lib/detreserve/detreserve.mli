(** Deterministic reservations (Blelloch et al.) — the PBBS
    determinism-by-construction framework used for the paper's
    handwritten deterministic baselines. *)

module Cell : sig
  type t

  val create_array : int -> t array

  val reserve : t -> int -> unit
  (** Priority-min write; deterministic regardless of timing. *)

  val holds : t -> int -> bool
  val release : t -> int -> unit
  val reset : t -> unit
end

type stats = { rounds : int; commits : int; retries : int; time_s : float }

val speculative_for :
  ?granularity:int ->
  pool:Parallel.Domain_pool.t ->
  n:int ->
  reserve:(int -> unit) ->
  commit:(int -> bool) ->
  unit ->
  stats
(** Run items [0..n-1] with sequential-priority semantics: rounds of
    [granularity]-sized prefixes; [reserve i] makes min-reservations,
    [commit i] returns true when the item succeeded (false = retry next
    round). [granularity] is PBBS's tunable round-size parameter. *)

val speculative_for_dynamic :
  ?granularity:int ->
  pool:Parallel.Domain_pool.t ->
  initial:'a array ->
  reserve:(int -> 'a -> unit) ->
  commit:(int -> 'a -> 'a list option) ->
  unit ->
  stats
(** Like {!speculative_for} but items carry data and a successful commit
    ([Some children]) may create new items, appended behind all pending
    work with deterministic priorities. [None] retries the item. *)
