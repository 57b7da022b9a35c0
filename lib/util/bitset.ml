type t = { mutable bits : Bytes.t; mutable card : int }

let create () = { bits = Bytes.make 64 '\000'; card = 0 }

let ensure t i =
  let need = (i lsr 3) + 1 in
  let cur = Bytes.length t.bits in
  if need > cur then begin
    let bits = Bytes.make (max need (2 * cur)) '\000' in
    Bytes.blit t.bits 0 bits 0 cur;
    t.bits <- bits
  end

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative";
  ensure t i;
  let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if byte land bit = 0 then begin
    Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte lor bit));
    t.card <- t.card + 1
  end

let remove t i =
  if i >= 0 && i lsr 3 < Bytes.length t.bits then begin
    let byte = Char.code (Bytes.unsafe_get t.bits (i lsr 3)) in
    let bit = 1 lsl (i land 7) in
    if byte land bit <> 0 then begin
      Bytes.unsafe_set t.bits (i lsr 3) (Char.unsafe_chr (byte land lnot bit));
      t.card <- t.card - 1
    end
  end

let cardinal t = t.card

let iter t f =
  let n = Bytes.length t.bits in
  for w = 0 to n - 1 do
    let byte = Char.code (Bytes.unsafe_get t.bits w) in
    if byte <> 0 then
      for b = 0 to 7 do
        if byte land (1 lsl b) <> 0 then f ((w lsl 3) lor b)
      done
  done

let iter_union t extra f =
  let extra = ref extra in
  let flush_below vid =
    let rec go () =
      match !extra with
      | e :: rest when e < vid ->
          extra := rest;
          f e;
          go ()
      | _ -> ()
    in
    go ()
  in
  iter t (fun vid ->
      flush_below vid;
      f vid);
  List.iter f !extra;
  extra := []

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc
