(** Sequential in-order scheduler (reference semantics and single-thread
    baseline). *)

val run :
  ?record:bool ->
  ?sink:Obs.sink ->
  operator:(('item, 'state) Context.t -> 'item -> unit) ->
  'item array ->
  Stats.t * Schedule.t option
(** [sink] receives one [Phase_time] ([Execute]) and one
    [Worker_counters] event at the end of the run; it is not closed.
    With {!Obs.null} the run reads no clock. *)
