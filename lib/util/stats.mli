(** Sample-based statistics for experiment reports. *)

(** {1 Sample sets with percentiles} *)

module Sample : sig
  type s

  val create : unit -> s
  val add : s -> float -> unit
  val count : s -> int
  val mean : s -> float
  val percentile : s -> float -> float
  (** [percentile s p] for [p] in [\[0, 100\]], linear interpolation.
      @raise Invalid_argument when empty or [p] out of range. *)
end
