(* Fixed-width bit vectors, little-endian limbs in base 2^16.

   16-bit limbs keep every intermediate product within OCaml's native
   [int] range (16 x 16 = 32 bits plus carries), so no boxed arithmetic
   is needed anywhere. Widths in this code base are small (packets and
   header fields), so the O(n^2) schoolbook algorithms are plenty. *)

let limb_bits = 16
let limb_mask = 0xFFFF

type t = { width : int; limbs : int array }

let width v = v.width
let nlimbs_of_width w = (w + limb_bits - 1) / limb_bits

(* Mask of significant bits in the top limb. *)
let top_mask w =
  let r = w mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let normalize v =
  let n = Array.length v.limbs in
  v.limbs.(n - 1) <- v.limbs.(n - 1) land top_mask v.width;
  v

let make w = { width = w; limbs = Array.make (nlimbs_of_width w) 0 }

let zero w =
  if w < 1 then invalid_arg "Bitvec.zero: width < 1";
  make w

let of_int ~width:w n =
  if w < 1 then invalid_arg "Bitvec.of_int: width < 1";
  let v = make w in
  let n = ref n in
  for i = 0 to Array.length v.limbs - 1 do
    (* [asr] keeps sign-fill so negative ints become two's complement. *)
    v.limbs.(i) <- !n land limb_mask;
    n := !n asr limb_bits
  done;
  normalize v

let of_int64 ~width:w n =
  if w < 1 then invalid_arg "Bitvec.of_int64: width < 1";
  let v = make w in
  let n = ref n in
  for i = 0 to Array.length v.limbs - 1 do
    v.limbs.(i) <- Int64.to_int (Int64.logand !n 0xFFFFL);
    n := Int64.shift_right !n limb_bits
  done;
  normalize v

let one w = of_int ~width:w 1

let ones w =
  let v = make w in
  Array.fill v.limbs 0 (Array.length v.limbs) limb_mask;
  normalize v

let of_bool b = of_int ~width:1 (if b then 1 else 0)

let copy v = { v with limbs = Array.copy v.limbs }

let testbit v i =
  if i < 0 || i >= v.width then false
  else v.limbs.(i / limb_bits) land (1 lsl (i mod limb_bits)) <> 0

let msb v = testbit v (v.width - 1)
let is_zero v = Array.for_all (fun l -> l = 0) v.limbs

let is_ones v =
  let n = Array.length v.limbs in
  let rec go i =
    if i = n then true
    else
      let expect = if i = n - 1 then top_mask v.width else limb_mask in
      v.limbs.(i) = expect && go (i + 1)
  in
  go 0

let equal a b =
  a.width = b.width && Array.for_all2 (fun x y -> x = y) a.limbs b.limbs

let is_one v = equal v (one v.width)
let is_true v = testbit v 0

let hash v =
  Array.fold_left (fun acc l -> (acc * 31) + l) (v.width * 7919) v.limbs

let compare_u a b =
  if a.width <> b.width then invalid_arg "Bitvec.compare_u: width mismatch";
  let rec go i =
    if i < 0 then 0
    else if a.limbs.(i) <> b.limbs.(i) then Stdlib.compare a.limbs.(i) b.limbs.(i)
    else go (i - 1)
  in
  go (Array.length a.limbs - 1)

let compare_s a b =
  match (msb a, msb b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> compare_u a b

let compare a b =
  if a.width <> b.width then Stdlib.compare a.width b.width else compare_u a b

let ult a b = compare_u a b < 0
let ule a b = compare_u a b <= 0
let slt a b = compare_s a b < 0
let sle a b = compare_s a b <= 0

(* {1 Arithmetic} *)

let add a b =
  if a.width <> b.width then invalid_arg "Bitvec.add: width mismatch";
  let r = make a.width in
  let carry = ref 0 in
  for i = 0 to Array.length r.limbs - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    r.limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let lognot a =
  let r = make a.width in
  for i = 0 to Array.length r.limbs - 1 do
    r.limbs.(i) <- lnot a.limbs.(i) land limb_mask
  done;
  normalize r

let neg a = add (lognot a) (one a.width)
let sub a b = add a (neg b)

let mul a b =
  if a.width <> b.width then invalid_arg "Bitvec.mul: width mismatch";
  let n = Array.length a.limbs in
  let acc = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let p = (a.limbs.(i) * b.limbs.(j)) + acc.(i + j) + !carry in
        acc.(i + j) <- p land limb_mask;
        carry := p lsr limb_bits
      done
    end
  done;
  normalize { width = a.width; limbs = acc }

let binop_bits f a b =
  if a.width <> b.width then invalid_arg "Bitvec: width mismatch";
  let r = make a.width in
  for i = 0 to Array.length r.limbs - 1 do
    r.limbs.(i) <- f a.limbs.(i) b.limbs.(i) land limb_mask
  done;
  normalize r

let logand = binop_bits ( land )
let logor = binop_bits ( lor )
let logxor = binop_bits ( lxor )

let shl a k =
  if k <= 0 then if k = 0 then copy a else invalid_arg "Bitvec.shl"
  else if k >= a.width then zero a.width
  else begin
    let r = make a.width in
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let n = Array.length r.limbs in
    for i = n - 1 downto 0 do
      let src = i - limb_shift in
      let lo = if src >= 0 then a.limbs.(src) lsl bit_shift else 0 in
      let hi =
        if bit_shift > 0 && src - 1 >= 0 then
          a.limbs.(src - 1) lsr (limb_bits - bit_shift)
        else 0
      in
      r.limbs.(i) <- (lo lor hi) land limb_mask
    done;
    normalize r
  end

let lshr a k =
  if k <= 0 then if k = 0 then copy a else invalid_arg "Bitvec.lshr"
  else if k >= a.width then zero a.width
  else begin
    let r = make a.width in
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let n = Array.length r.limbs in
    for i = 0 to n - 1 do
      let src = i + limb_shift in
      let lo = if src < n then a.limbs.(src) lsr bit_shift else 0 in
      let hi =
        if bit_shift > 0 && src + 1 < n then
          a.limbs.(src + 1) lsl (limb_bits - bit_shift)
        else 0
      in
      r.limbs.(i) <- (lo lor hi) land limb_mask
    done;
    normalize r
  end

let ashr a k =
  if k <= 0 then if k = 0 then copy a else invalid_arg "Bitvec.ashr"
  else if not (msb a) then lshr a k
  else if k >= a.width then ones a.width
  else begin
    (* Logical shift, then fill the vacated high bits with ones. *)
    let r = lshr a k in
    for i = a.width - k to a.width - 1 do
      r.limbs.(i / limb_bits) <-
        r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    normalize r
  end

(* Bits [lo, lo + len) as a non-negative int, [len <= Sys.int_size - 1];
   bits past the width read as zero. Gathers whole limbs: shifted past
   the int's top they fall off, and the final mask trims the rest. *)
let bits_at v ~lo ~len =
  let n = Array.length v.limbs in
  let i = lo / limb_bits and sh = lo mod limb_bits in
  if i >= n then 0
  else begin
    let acc = ref (v.limbs.(i) lsr sh) in
    let got = ref (limb_bits - sh) in
    let j = ref (i + 1) in
    while !got < len && !j < n do
      acc := !acc lor (v.limbs.(!j) lsl !got);
      got := !got + limb_bits;
      incr j
    done;
    !acc land ((1 lsl len) - 1)
  end

let to_int_trunc v = bits_at v ~lo:0 ~len:(min v.width (Sys.int_size - 1))

let to_int v =
  let rec high_clear lo =
    lo >= v.width || (bits_at v ~lo ~len:limb_bits = 0 && high_clear (lo + limb_bits))
  in
  if high_clear (Sys.int_size - 1) then Some (to_int_trunc v) else None

let to_int_exn v =
  match to_int v with
  | Some n -> n
  | None -> invalid_arg "Bitvec.to_int_exn: does not fit"

let word_bits = 61
let nwords w = (w + word_bits - 1) / word_bits

let to_words v dst off =
  for i = 0 to nwords v.width - 1 do
    let lo = i * word_bits in
    dst.(off + i) <- bits_at v ~lo ~len:(min word_bits (v.width - lo))
  done

let of_words ~width:w src off =
  let v = make w in
  let nw = nwords w in
  for j = 0 to Array.length v.limbs - 1 do
    let bit = j * limb_bits in
    let q = bit / word_bits and r = bit mod word_bits in
    let lo = src.(off + q) lsr r in
    let hi =
      if r + limb_bits > word_bits && q + 1 < nw then
        src.(off + q + 1) lsl (word_bits - r)
      else 0
    in
    v.limbs.(j) <- (lo lor hi) land limb_mask
  done;
  normalize v

let to_signed_int v =
  if not (msb v) then to_int v
  else match to_int (neg v) with
    | Some n when n > 0 || n = 0 -> Some (-n)
    | _ -> None

let shift_amount v =
  (* Effective shift for bv-valued shift amounts: anything >= width
     saturates to width (full shift-out). *)
  match to_int v with
  | Some n when n < v.width -> n
  | _ -> v.width

let shl_bv a b = shl a (min (shift_amount b) a.width)
let lshr_bv a b = lshr a (min (shift_amount b) a.width)

let ashr_bv a b =
  let k = shift_amount b in
  if k >= a.width then if msb a then ones a.width else zero a.width
  else ashr a k

(* Shift-subtract long division; returns (quotient, remainder). *)
let udivrem a b =
  if a.width <> b.width then invalid_arg "Bitvec.udiv: width mismatch";
  if is_zero b then (ones a.width, copy a) (* SMT-LIB semantics *)
  else begin
    let w = a.width in
    let q = make w and r = make w in
    for i = w - 1 downto 0 do
      (* r := (r << 1) | bit_i(a) *)
      let r' = shl r 1 in
      if testbit a i then r'.limbs.(0) <- r'.limbs.(0) lor 1;
      Array.blit r'.limbs 0 r.limbs 0 (Array.length r.limbs);
      if compare_u r b >= 0 then begin
        let d = sub r b in
        Array.blit d.limbs 0 r.limbs 0 (Array.length r.limbs);
        q.limbs.(i / limb_bits) <-
          q.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize q, normalize r)
  end

let udiv a b = fst (udivrem a b)
let urem a b = snd (udivrem a b)

(* SMT-LIB [bvsdiv]/[bvsrem]: truncated division on magnitudes. *)
let sdiv a b =
  match (msb a, msb b) with
  | false, false -> udiv a b
  | true, false -> neg (udiv (neg a) b)
  | false, true -> neg (udiv a (neg b))
  | true, true -> udiv (neg a) (neg b)

let srem a b =
  match (msb a, msb b) with
  | false, false -> urem a b
  | true, false -> neg (urem (neg a) b)
  | false, true -> urem a (neg b)
  | true, true -> neg (urem (neg a) (neg b))

let extract ~hi ~lo v =
  if lo < 0 || hi < lo || hi >= v.width then
    invalid_arg "Bitvec.extract: bad range";
  let w = hi - lo + 1 in
  let shifted = lshr v lo in
  let r = make w in
  let n = Array.length r.limbs in
  Array.blit shifted.limbs 0 r.limbs 0 n;
  normalize r

let zext w v =
  if w < v.width then invalid_arg "Bitvec.zext: narrowing";
  let r = make w in
  Array.blit v.limbs 0 r.limbs 0 (Array.length v.limbs);
  normalize r

let sext w v =
  if w < v.width then invalid_arg "Bitvec.sext: narrowing";
  if not (msb v) then zext w v
  else begin
    let r = ones w in
    (* Clear the low [v.width] bits, then install [v]. *)
    let low = zext w v in
    let cleared = shl (lshr r v.width) v.width in
    logor cleared low
  end

let concat hi lo =
  let w = hi.width + lo.width in
  logor (shl (zext w hi) lo.width) (zext w lo)

let popcount v =
  let c = ref 0 in
  for i = 0 to v.width - 1 do
    if testbit v i then incr c
  done;
  !c

let of_bytes_be s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bitvec.of_bytes_be: empty";
  let v = make (8 * len) in
  for i = 0 to len - 1 do
    let byte = Char.code s.[len - 1 - i] in
    let bit = i * 8 in
    let li = bit / limb_bits and off = bit mod limb_bits in
    v.limbs.(li) <- v.limbs.(li) lor ((byte lsl off) land limb_mask);
    if off + 8 > limb_bits then
      v.limbs.(li + 1) <- v.limbs.(li + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize v

let to_bytes_be v =
  if v.width mod 8 <> 0 then invalid_arg "Bitvec.to_bytes_be: ragged width";
  let len = v.width / 8 in
  String.init len (fun i -> Char.chr (bits_at v ~lo:((len - 1 - i) * 8) ~len:8))

let of_string ~width:w s =
  let digit_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bitvec.of_string: bad digit"
  in
  let base, body =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
      (16, String.sub s 2 (String.length s - 2))
    else if String.length s > 2 && s.[0] = '0' && (s.[1] = 'b' || s.[1] = 'B')
    then (2, String.sub s 2 (String.length s - 2))
    else (10, s)
  in
  if body = "" then invalid_arg "Bitvec.of_string: empty";
  let base_bv = of_int ~width:w base in
  String.fold_left
    (fun acc c ->
      if c = '_' then acc
      else begin
        let d = digit_val c in
        if d >= base then invalid_arg "Bitvec.of_string: bad digit";
        add (mul acc base_bv) (of_int ~width:w d)
      end)
    (zero w) body

let to_string_hex v =
  let ndigits = (v.width + 3) / 4 in
  let buf = Buffer.create (ndigits + 2) in
  Buffer.add_string buf "0x";
  for i = ndigits - 1 downto 0 do
    let nib = ref 0 in
    for j = 3 downto 0 do
      nib := (!nib lsl 1) lor (if testbit v ((i * 4) + j) then 1 else 0)
    done;
    Buffer.add_char buf "0123456789abcdef".[!nib]
  done;
  Buffer.contents buf

let to_string_dec v =
  if is_zero v then "0"
  else begin
    let ten = of_int ~width:v.width 10 in
    let buf = Buffer.create 8 in
    let rec go x =
      if not (is_zero x) then begin
        let q, r = udivrem x ten in
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int_trunc r));
        go q
      end
    in
    go v;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let pp fmt v = Format.fprintf fmt "%s:%d" (to_string_hex v) v.width
