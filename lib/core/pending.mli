(** Pending-task deque of the deterministic scheduler.

    Holds one generation's tasks — as ints, the scheduler's generation
    slots — in deterministic order; a round's
    window is the index range [\[0, w_use)] and finishing a round is an
    in-place compaction that drops the committed tasks while keeping
    the failed ones — in order — in front of the untried remainder.
    Steady-state rounds allocate nothing. *)

type t

val create : unit -> t

val load : t -> int array -> unit
(** [load t arr] replaces the contents with [arr], which the deque
    takes ownership of (it is compacted in place). The generation is
    unordered: {!window_avail} is the whole length. *)

val load_runs : t -> int array -> (int * int) array -> unit
(** [load_runs t arr runs] is {!load} for a soft-priority generation:
    [arr] is a concatenation of contiguous bucket runs (ascending
    bucket order) and [runs] gives each run's [(bucket, size)]. Sizes
    must be positive and sum to [Array.length arr], or
    [Invalid_argument]. Windows ({!window_avail}) then never straddle a
    run; {!note_dropped} tracks run drain. *)

val length : t -> int
(** Number of pending tasks. *)

val get : t -> int -> int
(** [get t i] is the [i]-th pending task, [0 <= i < length t]. *)

val current_run : t -> (int * int) option
(** Bucket index and remaining task count of the current (lowest
    non-empty) run; [None] for unordered generations or once every run
    has drained. *)

val window_avail : t -> int
(** Largest window a round may take: [length t] for unordered
    generations, the current run's remaining count otherwise. *)

val note_dropped : t -> int -> int option
(** [note_dropped t n] records that [n] window tasks committed (were
    dropped by {!compact}). Returns [Some bucket] when that drains the
    current run — the caller should open the next one — and [None]
    otherwise. Always [None] for unordered generations. Raises
    [Invalid_argument] if [n] exceeds the current run's remainder. *)

val compact : t -> w_use:int -> keep:(int -> bool) -> int
(** [compact t ~w_use ~keep] ends a round over the window
    [\[0, w_use)]: window slots with [keep i = false] are dropped, the
    kept ones stay (in order) in front of the remaining tasks. [keep]
    is called exactly once per window index, descending. Returns the
    number of dropped tasks. *)
