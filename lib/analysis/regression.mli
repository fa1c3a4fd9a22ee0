(** Ordinary least squares with R², for the Fig. 12 model-fit study. *)

type fit = { b0 : float; b1 : float; r2 : float; n : int }

val fit : (float * float) list -> fit
(** [(x, y)] samples; raises [Invalid_argument] with fewer than two
    points or degenerate x. *)
