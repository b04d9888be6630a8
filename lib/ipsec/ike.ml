open Resets_util
open Resets_sim

type cost = {
  compute : Time.t;
  rtt : Time.t;
  kdf_iterations : int;
}

let default_cost =
  { compute = Time.of_ms 2; rtt = Time.of_ms 10; kdf_iterations = 2048 }

let message_count = 4

let handshake_duration cost = Time.add (Time.mul cost.compute 4) (Time.mul cost.rtt 2)

let random_nonce prng =
  String.init 32 (fun _ -> Char.chr (Prng.int prng 256))

let derive_shared_params ?algo ?window_width ?arena ~spi ~nonce_i ~nonce_r
    ~kdf_iterations () =
  (* Models the Diffie-Hellman agreement: an expensive stretch standing
     in for exponentiation, then HKDF over both nonces. Both peers
     compute the same value from the same exchanged inputs. *)
  let shared = Resets_crypto.Kdf.stretch ~iterations:kdf_iterations (nonce_i ^ nonce_r) in
  Sa.derive_params ?algo ?window_width ?arena ~spi ~secret:shared ()

let establish ?algo ?window_width ?arena engine ~cost ~prng ~spi ~on_complete =
  let nonce_i = random_nonce prng in
  let nonce_r = random_nonce prng in
  (* Timeline: IKE_SA_INIT request (compute, rtt/2), response (compute,
     rtt/2), IKE_AUTH request (compute, rtt/2), response (compute,
     rtt/2) = 4 computes + 2 RTTs. We schedule the single completion
     event; the intermediate messages do not interact with anything
     else in the simulations that use this model. *)
  let total = handshake_duration cost in
  Engine.schedule_after engine ~after:total (fun () ->
      let params =
        derive_shared_params ?algo ?window_width ?arena ~spi ~nonce_i ~nonce_r
          ~kdf_iterations:cost.kdf_iterations ()
      in
      on_complete params)
  |> ignore
