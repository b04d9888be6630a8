(** Extended sequence numbers (ESN, after RFC 4304).

    The paper treats sequence numbers as unbounded integers, but the
    ESP header carries only 32 bits; real IPsec recovers the full
    64-bit value from the low half plus the receiver's window state.
    This module implements that inference, because SAVE/FETCH
    interacts with it: the persisted value is the full 64-bit number,
    and a wakeup leap can push the edge across a 2^32 epoch boundary,
    which the inference must survive.

    Terminology matches RFC 4304: [t] is the receiver's highest
    authenticated 64-bit number (our window's right edge), [w] the
    window width, [seq_low] the 32-bit value from the wire. *)

val epoch : int
(** 2^32. *)

val low_of : int -> int
(** Low 32 bits of a full sequence number. *)

val high_of : int -> int
(** Epoch index (high 32 bits). *)

val infer : edge:int -> w:int -> seq_low:int -> int
(** Reconstruct the full sequence number a packet carrying [seq_low]
    must have, given the current [edge]:

    - if the window does not straddle an epoch boundary (case A), a
      low value at or above the left edge belongs to the current
      epoch, anything lower to the next;
    - if it does straddle one (case B), low values above the wrapped
      left edge belong to the previous epoch, the rest to the
      current.

    @raise Invalid_argument if [seq_low] is outside [\[0, 2^32)] or
    [w] is not positive. *)
