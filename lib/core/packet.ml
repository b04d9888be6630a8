type t = {
  wire : string;
  replayed : bool;
}

let fresh wire = { wire; replayed = false }

let mark_replayed t = { t with replayed = true }
