(** Streaming and sample-based statistics for experiment reports. *)

(** {1 Streaming moments (Welford)} *)

type t
(** Accumulates count, mean, variance, min and max in O(1) memory. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0. with fewer than two samples. *)

val stddev : t -> float

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val total : t -> float

val merge : t -> t -> t
(** Combine two accumulators (parallel Welford merge). *)

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

  val median : s -> float
end

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  (** Uniform bucket widths over [\[lo, hi)]; out-of-range samples land
      in saturating end buckets. *)

  val add : h -> float -> unit
  val counts : h -> int array
  val bucket_bounds : h -> (float * float) array
  val total : h -> int

  val percentile : h -> float -> float
  (** [percentile h p] for [p] in [\[0, 100\]]: the bucketed estimate of
      the [p]-th percentile, linearly interpolated inside the bucket the
      target rank falls in. Within one bucket width of the exact
      (nearest-rank) sample percentile for in-range samples — the
      qcheck property in [test_report] checks this against a
      sorted-array oracle. @raise Invalid_argument when empty or [p]
      out of range. *)
end
