let put_be32 buf v =
  for i = 3 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int32.to_int (Int32.shift_right_logical v (8 * i)) land 0xff))
  done

let put_be64 buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let get_be32_bytes b off =
  if off < 0 || off + 4 > Bytes.length b then
    invalid_arg "Wire.get_be32_bytes: short input";
  let byte i = Int32.of_int (Char.code (Bytes.get b (off + i))) in
  Int32.logor
    (Int32.shift_left (byte 0) 24)
    (Int32.logor
       (Int32.shift_left (byte 1) 16)
       (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))

let get_be64_bytes b off =
  if off < 0 || off + 8 > Bytes.length b then
    invalid_arg "Wire.get_be64_bytes: short input";
  let acc = ref 0L in
  for i = 0 to 7 do
    acc :=
      Int64.logor (Int64.shift_left !acc 8)
        (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  !acc

let get_be32 s off =
  if off < 0 || off + 4 > String.length s then invalid_arg "Wire.get_be32: short input";
  let byte i = Int32.of_int (Char.code s.[off + i]) in
  Int32.logor
    (Int32.shift_left (byte 0) 24)
    (Int32.logor
       (Int32.shift_left (byte 1) 16)
       (Int32.logor (Int32.shift_left (byte 2) 8) (byte 3)))
