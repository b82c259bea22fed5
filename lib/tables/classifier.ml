(** Click-style classifier patterns.

    A pattern is a list of clauses [offset/value] or [offset/value%mask]
    (hex value and mask, byte-aligned, any length), e.g. Click's
    ["12/0800"] meaning "bytes 12.. equal 0x0800". The wildcard pattern
    ["-"] matches everything. A classifier is an ordered list of
    patterns; the first match decides the output port. *)

type clause = {
  offset : int;
  value : string;  (** raw bytes to compare *)
  mask : string;   (** same length; 0xff = compare this bit *)
}

type pattern =
  | Match of clause list
  | Any

type t = pattern array

let parse_hex_bytes s =
  let n = String.length s in
  if n = 0 || n mod 2 <> 0 then
    invalid_arg ("Classifier: ragged hex string " ^ s);
  String.init (n / 2) (fun i ->
      match int_of_string_opt ("0x" ^ String.sub s (2 * i) 2) with
      | Some v when v >= 0 -> Char.chr v
      | _ -> invalid_arg ("Classifier: bad hex string " ^ s))

let parse_clause s =
  match String.index_opt s '/' with
  | None -> invalid_arg ("Classifier: missing '/' in clause " ^ s)
  | Some slash ->
    let offset =
      match int_of_string_opt (String.sub s 0 slash) with
      | Some v when v >= 0 -> v
      | _ -> invalid_arg ("Classifier: bad offset in clause " ^ s)
    in
    let rest = String.sub s (slash + 1) (String.length s - slash - 1) in
    let value_hex, mask_hex =
      match String.index_opt rest '%' with
      | None -> (rest, String.make (String.length rest) 'f')
      | Some pct ->
        ( String.sub rest 0 pct,
          String.sub rest (pct + 1) (String.length rest - pct - 1) )
    in
    if String.length value_hex <> String.length mask_hex then
      invalid_arg ("Classifier: value/mask length mismatch in " ^ s);
    {
      offset;
      value = parse_hex_bytes value_hex;
      mask = parse_hex_bytes mask_hex;
    }

(** Parse one pattern spec: whitespace-separated clauses, or ["-"]. *)
let parse_pattern spec =
  let spec = String.trim spec in
  if spec = "-" then Any
  else
    Match
      (List.filter_map
         (fun tok -> if tok = "" then None else Some (parse_clause tok))
         (String.split_on_char ' ' spec))

let parse specs : t = Array.of_list (List.map parse_pattern specs)

let clause_matches (p : Vdp_packet.Packet.t) c =
  let n = String.length c.value in
  Vdp_packet.Packet.length p >= c.offset + n
  && (let ok = ref true in
      for i = 0 to n - 1 do
        let b = Vdp_packet.Packet.get_u8 p (c.offset + i) in
        let m = Char.code c.mask.[i] in
        if b land m <> Char.code c.value.[i] land m then ok := false
      done;
      !ok)

let pattern_matches p = function
  | Any -> true
  | Match clauses -> List.for_all (clause_matches p) clauses

(** First matching pattern's index, if any. *)
let classify (t : t) p =
  let rec go i =
    if i >= Array.length t then None
    else if pattern_matches p t.(i) then Some i
    else go (i + 1)
  in
  go 0

(** Largest offset+size any clause reads — used to compile bounds
    checks into the IR version. *)
let max_reach = function
  | Any -> 0
  | Match clauses ->
    List.fold_left
      (fun acc c -> max acc (c.offset + String.length c.value))
      0 clauses
