(** Bit-population count for the exhaustive conductance enumeration. *)

(** Number of set bits in the argument's [Sys.int_size]-bit two's
    complement form ([popcount (-1) = Sys.int_size]). *)
val popcount : int -> int
