(** Execution policies — the on-demand determinism switch.

    The same application code runs under any policy; programs select one
    at run time (typically from the command line), realizing the paper's
    on-demand determinism. *)

type priority_mode =
  | Prio_off  (** unordered: generations in pure id order (default) *)
  | Prio_delta of int
      (** delta-stepping buckets of width [delta >= 1]; bucket
          [priority / delta] runs before higher buckets, id order within
          a bucket *)
  | Prio_auto
      (** per-generation delta derived from the priority span — still a
          pure function of the task set, so still deterministic *)

type det_options = {
  target_ratio : float;
      (** Adaptive-window commit-ratio threshold (default 0.9). *)
  initial_window : int option;
      (** First-round window; [None] (default) derives it from the task
          count, keeping it machine-independent. *)
  spread : int;  (** Locality-spread piles; 1 disables (default 16). *)
  continuation : bool;  (** §3.3 continuation optimization (default on). *)
  validate : bool;
      (** Debug: re-verify neighborhood marks at commit in addition to
          the O(1) defeat flags. *)
  priority : priority_mode;
      (** Soft-priority windows over the run's priority function; rounds
          draw from the lowest non-empty bucket first. [Prio_off]
          (default) leaves schedules byte-identical to the unordered
          scheduler. *)
}

val default_det : det_options

(** A validating constructor and a keyed string grammar for
    {!det_options}. *)
module Det_options : sig
  type t = det_options = {
    target_ratio : float;
    initial_window : int option;
    spread : int;
    continuation : bool;
    validate : bool;
    priority : priority_mode;
  }

  val default : t
  (** = {!default_det}. *)

  val make :
    ?ratio:float ->
    ?window:int option ->
    ?spread:int ->
    ?continuation:bool ->
    ?validate:bool ->
    ?priority:priority_mode ->
    unit ->
    t
  (** Build from {!default}, overriding the fields given. [window] is
      the full option: pass [~window:(Some 64)] for a fixed first
      window, [~window:None] for the task-count-derived default
      ([window=auto] in the string grammar). Raises [Invalid_argument]
      unless [ratio > 0], a fixed [window >= 1], [spread >= 1] ([1]
      disables spreading) and a [Prio_delta] width [>= 1]. Ratios above
      1 are allowed: they make the target unreachable, pinning the
      window (used by the §3.3 ablations). *)

  val to_string : t -> string
  (** Keyed form, e.g. ["window=64,spread=1,ratio=0.95,cont=off"]. Only
      non-default keys are emitted, in the fixed order [window],
      [spread], [ratio], [cont], [validate], [prio]; the default prints
      as [""]. Round-trips through {!of_string} for every value
      (human-entered ratios stay short; pathological floats fall back to
      a 17-digit render). *)

  val of_string : string -> (t, string) result
  (** Parse the keyed form, any key order. Keys: [window=<int>=1..|auto],
      [spread=<int>=1..], [ratio=<float>0..], [cont=on|off],
      [validate=on|off], [prio=off|auto|delta:<int>=1..]. Unknown keys,
      duplicate keys and out-of-range values are rejected; [""] is
      {!default}. *)
end

type t =
  | Serial  (** in-order sequential execution *)
  | Nondet of { threads : int }  (** speculative scheduling (Fig. 1b) *)
  | Det of { threads : int; options : det_options }
      (** deterministic DIG scheduling (Fig. 2) *)

val serial : t
val nondet : int -> t
val det : ?options:det_options -> int -> t

val threads : t -> int

val is_deterministic : t -> bool
(** True for [Serial] and [Det]: the output is a function of the input
    only, not of timing or thread count. *)

val grammar : string
(** One-line grammar summary for help text:
    ["serial | nondet[:T] | det[:T][k=v,...]"]. *)

val of_string : string -> (t, string) result
(** Parses ["serial"], ["nondet\[:T\]"] and ["det\[:T\]\[k=v,...\]"]
    (thread count defaults to 1). The optional bracketed block after
    [det] carries {!Det_options.of_string} options, e.g.
    ["det:8\[window=64,spread=1,ratio=0.95,cont=off\]"]. Inverse of
    {!to_string}. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Canonical render; non-default deterministic options reappear in the
    bracketed keyed form, so [of_string (to_string p)] yields [p]. *)
