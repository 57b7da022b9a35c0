(* FIPS 180-4 SHA-256: padding, buffering and [digest_concat] framing
   here, the compression function in sha256_stubs.c. The message is
   processed in 512-bit blocks; partial input is buffered in [ctx.buf].
   Every digest resets and reuses the one context below, so it allocates
   only its result; sha256.mli says why sharing it is safe. *)

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  hdr : Bytes.t; (* 4-byte part length of [digest_concat] *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let ctx =
  {
    h = Array.make 8 0;
    buf = Bytes.create 64;
    hdr = Bytes.create 4;
    buf_len = 0;
    total = 0;
  }

let reset () =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* [compress h block off] folds [block.[off .. off+63]] into the state
   [h]; the caller guarantees the 64 bytes are there. It runs the SHA-NI
   kernel when [select] found the CPU has it, the portable C kernel
   otherwise; [compress_portable] always runs the portable one. *)
external compress : int array -> Bytes.t -> int -> unit = "brdb_sha256_compress"
[@@noalloc]

external compress_portable : int array -> Bytes.t -> int -> unit
  = "brdb_sha256_compress_portable"
[@@noalloc]

(* Reads CPUID once and picks the kernel [compress] runs. *)
external select : unit -> unit = "brdb_sha256_select" [@@noalloc]

let () = select ()

let feed compress s =
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
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  let src = Bytes.unsafe_of_string s in
  while n - !pos >= 64 do
    compress ctx.h src !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finalize compress =
  (* Padding: 0x80, zeros, 64-bit big-endian length in bits. *)
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let len = ctx.buf_len + 1 in
  if len > 56 then begin
    Bytes.fill buf len (64 - len) '\x00';
    compress ctx.h buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf len (56 - len) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx.h buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_with compress s =
  reset ();
  feed compress s;
  finalize compress

let digest s = digest_with compress s

let hex s = Brdb_util.Hex.encode (digest s)

let digest_concat parts =
  reset ();
  List.iter
    (fun p ->
      Bytes.set_int32_be ctx.hdr 0 (Int32.of_int (String.length p));
      feed compress (Bytes.unsafe_to_string ctx.hdr);
      feed compress p)
    parts;
  finalize compress

module Testing = struct
  let digest_portable s = digest_with compress_portable s
end
