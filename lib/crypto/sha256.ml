(* FIPS 180-4 SHA-256 on native ints: every word is an OCaml [int] masked
   to 32 bits, and every rotation is a shift of the doubled word (below).
   The message is processed in 512-bit blocks; partial input is buffered
   in [ctx.buf]. Every digest resets and reuses the one context below, so
   it allocates only its result; sha256.mli says why sharing it is safe. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  w : int array; (* 64-entry message schedule *)
  buf : Bytes.t; (* 64-byte block buffer *)
  hdr : Bytes.t; (* 4-byte part length of [digest_concat] *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let ctx =
  {
    h = Array.make 8 0;
    w = Array.make 64 0;
    buf = Bytes.create 64;
    hdr = Bytes.create 4;
    buf_len = 0;
    total = 0;
  }

let reset () =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let mask = 0xffff_ffff

(* Rotations on the doubled word. For [x] masked to 32 bits,
   [x lor (x lsl 32)] repeats bits 0-30 of [x] at bits 32-62 (bit 31 of the
   copy falls off the 63-bit [int]), so for every shift [n <= 31] the low 32
   bits of [x2 lsr n] are [rotr x n], and each sigma below doubles its
   word once and shifts it three times. The sigmas keep the garbage above
   bit 31: only the low 32 bits of a sum depend on the low 32 bits of its
   terms, and every sum that becomes a word is masked. *)
let[@inline] double x = x lor (x lsl 32)

(* The 64 rounds over schedule [w], with the working variables passed as
   arguments so they stay unboxed. [i < 64] bounds both [k] and [w]. *)
let rec rounds w i a b c d e f g hh =
  if i = 64 then begin
    let h = ctx.h in
    h.(0) <- (h.(0) + a) land mask;
    h.(1) <- (h.(1) + b) land mask;
    h.(2) <- (h.(2) + c) land mask;
    h.(3) <- (h.(3) + d) land mask;
    h.(4) <- (h.(4) + e) land mask;
    h.(5) <- (h.(5) + f) land mask;
    h.(6) <- (h.(6) + g) land mask;
    h.(7) <- (h.(7) + hh) land mask
  end
  else
    let e2 = double e in
    let s1 = (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25) in
    let ch = g lxor (e land (f lxor g)) in
    let t1 = hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let a2 = double a in
    let s0 = (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22) in
    let maj = (a land b) lor (c land (a lor b)) in
    rounds w (i + 1) ((t1 + s0 + maj) land mask) a b c ((d + t1) land mask) e f g

let compress block off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask
  done;
  (* [16 <= i < 64] bounds every schedule index below. *)
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let x2 = double x and y2 = double y in
    let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
    let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  rounds w 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let feed s =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Fill a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  let src = Bytes.unsafe_of_string s in
  while n - !pos >= 64 do
    compress src !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize () =
  (* Padding: 0x80, zeros, 64-bit big-endian length in bits. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let len = ctx.buf_len + 1 in
  if len > 56 then begin
    Bytes.fill buf len (64 - len) '\x00';
    compress buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf len (56 - len) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  reset ();
  feed s;
  finalize ()

let hex s = Brdb_util.Hex.encode (digest s)

let digest_concat parts =
  reset ();
  List.iter
    (fun p ->
      Bytes.set_int32_be ctx.hdr 0 (Int32.of_int (String.length p));
      feed (Bytes.unsafe_to_string ctx.hdr);
      feed p)
    parts;
  finalize ()
