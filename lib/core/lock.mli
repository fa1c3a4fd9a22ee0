(** Abstract locations with atomic, epoch-stamped mark words.

    The Galois runtime synchronizes by associating marks with abstract
    locations (paper §2). A location is one heap block holding its mark
    word and its location id, so a claim touches a single block. The
    word holds 0 when free or a packed [(stamp, task id)] pair. All
    claiming operations take the epoch [~stamp] they run under (obtained
    from {!new_epoch}); a mark whose stamp belongs to a different epoch
    is {e stale} and behaves like a free word. This makes end-of-round
    mark clearing unnecessary: the DIG scheduler opens a fresh epoch per
    round, invalidating every surviving mark at once instead of CAS-ing
    each one back to 0. *)

type t

val create : unit -> t
(** A fresh location (word 0) with a location id unique within the
    current lid namespace (process-unique unless {!reset_lids} is
    used). *)

val reset_lids : ?base:int -> unit -> unit
(** Re-base the process-global lid counter (default 0) so location ids
    are reproducible from one run to the next within a process. Call
    only between runs, when no locks created under the previous
    namespace remain live — lid uniqueness holds per namespace only.
    Lids stay excluded from all schedule/trace digests regardless. *)

val create_array : int -> t array
(** [create_array n] is [n] fresh locations whose lids are the
    contiguous range [base .. base + n - 1], reserved in one step even
    while other domains create locations. Raises [Invalid_argument] when
    [n < 0], before any lid is consumed. *)

val id : t -> int
(** Stable location id, used for access traces and cache simulation. *)

val max_task_id : int
(** Largest representable task id ([2^30 - 1]). Claiming with an id
    outside [1, max_task_id] raises [Invalid_argument]. *)

val max_stamp : int
(** Largest representable epoch stamp ([2^32 - 1]). *)

val new_epoch : unit -> int
(** A fresh epoch stamp from a process-global monotonic counter
    (always >= 1). Marks written under earlier epochs are stale — free
    by construction — for every operation taking this stamp. Raises
    [Invalid_argument] if the 32-bit stamp space is ever exhausted. *)

val mark : t -> int
(** The task-id field of the current mark word regardless of its epoch
    (0 = free). A stale mark still decodes to the id that wrote it;
    epoch-respecting readers use {!holds}. *)

val raw : t -> int
(** The raw packed word (0 = free); for tests and debugging. *)

val try_claim : t -> stamp:int -> int -> bool
(** [try_claim l ~stamp id] implements Fig. 1b's [writeMarks] for one
    location: atomically claim [l] for task [id] if free or stale (or
    already held by [id] under [stamp]). False means a same-epoch
    conflict with another task. *)

val claim_fresh : t -> stamp:int -> int -> bool
(** [claim_fresh l ~stamp id] claims [l] only if its word is literally 0
    — never marked, or explicitly cleared. Unlike {!try_claim}, a stale
    mark from an earlier epoch fails the claim: it proves another task
    has seen the location, which is what freshness rules out. Used by
    [Context.register_new]. *)

val claim_max : t -> stamp:int -> int -> int
(** [claim_max l ~stamp id] implements Fig. 3's [writeMarksMax] for one
    location: raise the mark to [max mark id] within the epoch, where a
    stale or free word counts as 0. A result [d >= 0] means the mark now
    carries [id] and displaced the same-epoch task with id [d] (0 when
    the location was free, stale or already ours); {!lost} means a
    higher-priority task holds it under this epoch. The result is an
    immediate, so a claim never allocates. Never fails to complete —
    required for determinism (§3.2). *)

val lost : int
(** The {!claim_max} result for a lost claim (negative, so it is never
    a task id). *)

val holds : t -> stamp:int -> int -> bool
(** Does the mark equal this (stamp, task id) pair exactly? *)

val release : t -> stamp:int -> int -> unit
(** Reset the mark to 0 if held by this task id under this epoch. *)

val force_clear : t -> unit
(** Unconditionally reset; only for (re)initializing data structures. *)
