(* Boxed-[Int32] reference for [Brdb_crypto.Sha256]: FIPS 180-4 SHA-256
   as the library computed it before it moved to native-int words and one
   reused context. Every call builds a fresh context, so nothing is shared
   between digests. test_crypto.ml pins [Sha256.digest] and
   [Sha256.digest_concat] to these on random inputs. The message is
   processed in 512-bit blocks; partial input is buffered in [buf]. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64; (* total bytes fed *)
  w : int32 array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0L;
    w = Array.make 64 0l;
  }

let ( +% ) = Int32.add
let ( ^% ) = Int32.logxor
let ( &% ) = Int32.logand
let lnot32 = Int32.lognot

let rotr x n =
  Int32.logor
    (Int32.shift_right_logical x n)
    (Int32.shift_left x (32 - n))

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      Int32.logor
        (Int32.shift_left (Int32.of_int (Char.code (Bytes.get block j))) 24)
        (Int32.logor
           (Int32.shift_left
              (Int32.of_int (Char.code (Bytes.get block (j + 1))))
              16)
           (Int32.logor
              (Int32.shift_left
                 (Int32.of_int (Char.code (Bytes.get block (j + 2))))
                 8)
              (Int32.of_int (Char.code (Bytes.get block (j + 3))))))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 ^% rotr w.(i - 15) 18
      ^% Int32.shift_right_logical w.(i - 15) 3
    in
    let s1 =
      rotr w.(i - 2) 17 ^% rotr w.(i - 2) 19
      ^% Int32.shift_right_logical w.(i - 2) 10
    in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let h = ctx.h in
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 ^% rotr !e 11 ^% rotr !e 25 in
    let ch = (!e &% !f) ^% (lnot32 !e &% !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = rotr !a 2 ^% rotr !a 13 ^% rotr !a 22 in
    let maj = (!a &% !b) ^% (!a &% !c) ^% (!b &% !c) in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  h.(0) <- h.(0) +% !a;
  h.(1) <- h.(1) +% !b;
  h.(2) <- h.(2) +% !c;
  h.(3) <- h.(3) +% !d;
  h.(4) <- h.(4) +% !e;
  h.(5) <- h.(5) +% !f;
  h.(6) <- h.(6) +% !g;
  h.(7) <- h.(7) +% !hh

let feed ctx s =
  let n = String.length s in
  ctx.total <- Int64.add ctx.total (Int64.of_int n);
  let pos = ref 0 in
  (* Fill a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  let tmp = Bytes.unsafe_of_string s in
  while n - !pos >= 64 do
    compress ctx tmp !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize ctx =
  let bits = Int64.mul ctx.total 8L in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  Bytes.set ctx.buf ctx.buf_len '\x80';
  let len = ctx.buf_len + 1 in
  if len > 56 then begin
    Bytes.fill ctx.buf len (64 - len) '\x00';
    compress ctx ctx.buf 0;
    Bytes.fill ctx.buf 0 56 '\x00'
  end
  else Bytes.fill ctx.buf len (56 - len) '\x00';
  for i = 0 to 7 do
    Bytes.set ctx.buf (56 + i)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * (7 - i))) 0xffL)))
  done;
  compress ctx ctx.buf 0;
  let out = Bytes.create 32 in
  Array.iteri
    (fun i word ->
      for j = 0 to 3 do
        Bytes.set out ((4 * i) + j)
          (Char.chr
             (Int32.to_int
                (Int32.logand (Int32.shift_right_logical word (8 * (3 - j))) 0xffl)))
      done)
    ctx.h;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter
    (fun p ->
      let len = String.length p in
      let hdr = Bytes.create 4 in
      for i = 0 to 3 do
        Bytes.set hdr i (Char.chr ((len lsr (8 * (3 - i))) land 0xff))
      done;
      feed ctx (Bytes.unsafe_to_string hdr);
      feed ctx p)
    parts;
  finalize ctx
