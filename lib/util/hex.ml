let hexdigit n = "0123456789abcdef".[n]

let encode s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let n = Char.code c in
      Bytes.set b (2 * i) (hexdigit (n lsr 4));
      Bytes.set b ((2 * i) + 1) (hexdigit (n land 0xf)))
    s;
  Bytes.unsafe_to_string b

let short ?(n = 12) s =
  let h = encode s in
  if String.length h <= n then h else String.sub h 0 n
