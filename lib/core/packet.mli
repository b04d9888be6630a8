(** What travels on the simulated p→q link: ESP wire bytes plus a
    provenance bit.

    The provenance bit exists only for measurement — it lets the
    metrics distinguish "a replayed message was accepted" from ordinary
    deliveries. The receiver's protocol logic never reads it (a real
    receiver could not), which the test suite checks by construction:
    {!Receiver} classifies packets before looking at provenance. *)

type t = {
  wire : string;
  replayed : bool;
}

val fresh : string -> t

val mark_replayed : t -> t
(** Used by the adversary when injecting a captured copy. *)

