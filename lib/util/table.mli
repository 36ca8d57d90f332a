(** ASCII table rendering for the experiment harness.

    Every experiment in EXPERIMENTS.md prints its results through this
    module so that bench output is uniform and diffable. *)

type align = Left | Right

type t

val create : title:string -> columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width does not match the header. *)

val render : t -> string

val print : t -> unit
(** [render] followed by a newline on stdout. *)

val cell_f : float -> string
(** Standard float formatting for table cells ("%.2f"). *)

val cell_i : int -> string

val cell_ratio : float -> string
(** Multiplicative factor, e.g. "3.42x". *)
