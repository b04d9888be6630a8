(** IKE-lite: a cost-faithful model of SA (re-)establishment.

    The paper's Section 3 argues that the IETF-recommended response to
    a reset — delete the SA and renegotiate it — is expensive: "the
    recomputation of most attributes of this SA, especially the keys
    and shared secrets, and the renegotiation of all these attributes
    using a secured connection". This module models that cost without
    implementing full IKEv2:

    - 4 messages over the link (init/init, auth/auth), i.e. 2 RTTs;
    - one expensive asymmetric computation per side per phase, modeled
      in simulated time by [cost.compute] and in real work by
      {!Resets_crypto.Kdf.stretch} with [cost.kdf_iterations];
    - key material derived from both nonces via HKDF, so the resulting
      {!Sa.params} are real keys both peers agree on. *)

type cost = {
  compute : Resets_sim.Time.t;  (** simulated time per asymmetric op *)
  rtt : Resets_sim.Time.t;  (** link round-trip time *)
  kdf_iterations : int;  (** real hashing work per asymmetric op *)
}

val default_cost : cost
(** 2 ms per asymmetric op, 10 ms RTT, 2048 hash iterations — the
    shape, not the absolute numbers, is what E7 relies on. *)

val message_count : int
(** 4. *)

val handshake_duration : cost -> Resets_sim.Time.t
(** Closed-form simulated duration of one establishment:
    [4 * compute + 2 * rtt]. *)

val establish :
  ?algo:Sa.algo ->
  ?window_width:int ->
  ?arena:Sadb_flat.t ->
  Resets_sim.Engine.t ->
  cost:cost ->
  prng:Resets_util.Prng.t ->
  spi:int32 ->
  on_complete:(Sa.params -> unit) ->
  unit
(** Run the 4-message exchange on the simulated clock; [on_complete]
    fires [handshake_duration cost] later with the agreed parameters.
    The KDF work really executes (so wall-clock microbenchmarks of
    re-establishment are meaningful). *)

val derive_shared_params :
  ?algo:Sa.algo ->
  ?window_width:int ->
  ?arena:Sadb_flat.t ->
  spi:int32 ->
  nonce_i:string ->
  nonce_r:string ->
  kdf_iterations:int ->
  unit ->
  Sa.params
(** The key-agreement core, exposed for tests: both sides compute this
    from the exchanged nonces. *)
