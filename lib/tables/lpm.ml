(** Longest-prefix match on a binary trie — the reference
    implementation that the DIR-16-8-8 FIB behind RadixIPLookup
    ([Vdp_click.El_lookup.Fib]) is checked against. *)

type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = { root : 'a node; mutable count : int }

let create () = { root = { value = None; zero = None; one = None }; count = 0 }

let bit_of addr i = (addr lsr (31 - i)) land 1

let add t ~prefix ~len value =
  if len < 0 || len > 32 then invalid_arg "Lpm.add: bad prefix length";
  let rec go node i =
    if i = len then begin
      if node.value = None then t.count <- t.count + 1;
      node.value <- Some value
    end
    else begin
      let child =
        if bit_of prefix i = 0 then node.zero else node.one
      in
      let child =
        match child with
        | Some c -> c
        | None ->
          let c = { value = None; zero = None; one = None } in
          if bit_of prefix i = 0 then node.zero <- Some c
          else node.one <- Some c;
          c
      in
      go child (i + 1)
    end
  in
  go t.root 0

let remove t ~prefix ~len =
  if len < 0 || len > 32 then invalid_arg "Lpm.remove: bad prefix length";
  let rec go node i =
    if i = len then
      match node.value with
      | None -> false
      | Some _ ->
        node.value <- None;
        t.count <- t.count - 1;
        true
    else
      match (if bit_of prefix i = 0 then node.zero else node.one) with
      | None -> false
      | Some c -> go c (i + 1)
  in
  go t.root 0

let lookup t addr =
  let best = ref t.root.value in
  let rec go node i =
    if i < 32 then
      let child = if bit_of addr i = 0 then node.zero else node.one in
      match child with
      | None -> ()
      | Some c ->
        (match c.value with Some _ -> best := c.value | None -> ());
        go c (i + 1)
  in
  go t.root 0;
  !best

let count t = t.count

let fold f t init =
  let rec go node prefix len acc =
    let acc =
      match node.value with Some v -> f ~prefix ~len v acc | None -> acc
    in
    let acc =
      match node.zero with
      | Some c -> go c prefix (len + 1) acc
      | None -> acc
    in
    match node.one with
    | Some c ->
      (* [add] caps prefixes at /32, so a node at depth 32 never has
         children — but keep the shift amount defined rather than rely
         on it ([1 lsl -1] is unspecified in OCaml). *)
      assert (len < 32);
      go c (prefix lor (1 lsl (31 - len))) (len + 1) acc
    | None -> acc
  in
  go t.root 0 0 init

let of_list routes =
  let t = create () in
  List.iter (fun (prefix, len, v) -> add t ~prefix ~len v) routes;
  t
