(* Time for the runtime: monotonic durations, wall-clock stamps.

   Durations are differences of a monotonic clock: an NTP step in the
   middle of a phase cannot make it negative. The clock itself is
   bechamel's CLOCK_MONOTONIC stub — nanoseconds from an arbitrary
   origin, never stepping backwards.

   [stamp] is the one wall-clock read of the library: an event's
   [Obs.at_s] is an absolute time, where wall time is the point. This
   file is exempt from detlint's wall-clock rule, so no call site needs
   an allow. *)

let now_ns () : int64 = Monotonic_clock.now ()

let now_s () = Int64.to_float (now_ns ()) *. 1e-9

(* Seconds elapsed since a [now_s] reading. Non-negative by
   construction (monotonicity), modulo float rounding at the origin. *)
let elapsed_s since = Float.max 0.0 (now_s () -. since)

let stamp event = { Obs.at_s = Unix.gettimeofday (); event }
