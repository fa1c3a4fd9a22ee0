(** Summary statistics (medians etc.) for result tables. All raise
    [Invalid_argument] on empty input. *)

val mean : float list -> float
val median : float list -> float
val maximum : float list -> float
val minimum : float list -> float
