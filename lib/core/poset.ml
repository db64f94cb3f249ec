(* [anc.(a)] holds the strict ancestors of [a] ({b | a < b}) in ascending
   id order; [rank.(a)] is the length of the longest chain below [a]. *)
type t = { anc : int array array; rank : int array }

(* Smallest id that reaches itself through the declared up-edges.  Only
   called once a cycle is known to exist, so a search per id is fine. *)
let smallest_on_cycle n ups =
  let reaches_self i =
    let seen = Array.make n false in
    let rec go = function
      | [] -> false
      | b :: rest ->
        b = i
        || (if seen.(b) then go rest
            else begin
              seen.(b) <- true;
              go (ups.(b) @ rest)
            end)
    in
    go ups.(i)
  in
  let rec first i = if reaches_self i then i else first (i + 1) in
  first 0

exception Cycle

let make ~n ~pairs =
  let bad =
    List.find_opt (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n) pairs
  in
  match bad with
  | Some (a, b) -> Error (Printf.sprintf "order pair (%d, %d) out of range" a b)
  | None -> (
    let ups = Array.make n [] in
    List.iter (fun (a, b) -> ups.(a) <- b :: ups.(a)) pairs;
    let anc = Array.make n [||] in
    (* 0 unvisited, 1 on the DFS stack, 2 done *)
    let state = Array.make n 0 in
    (* [mark.(b) = a] while collecting [a]'s ancestors: dedup without a
       per-id set *)
    let mark = Array.make n (-1) in
    let rec visit a =
      match state.(a) with
      | 2 -> ()
      | 1 -> raise Cycle
      | _ ->
        state.(a) <- 1;
        List.iter visit ups.(a);
        let acc = ref [] in
        let add b =
          if mark.(b) <> a then begin
            mark.(b) <- a;
            acc := b :: !acc
          end
        in
        List.iter
          (fun p ->
            add p;
            Array.iter add anc.(p))
          ups.(a);
        (match !acc with
        | [] -> ()
        | l ->
          let s = Array.of_list l in
          Array.sort Int.compare s;
          anc.(a) <- s);
        state.(a) <- 2
    in
    match
      for a = 0 to n - 1 do
        visit a
      done
    with
    | exception Cycle ->
      Error
        (Printf.sprintf "the component order has a cycle through id %d"
           (smallest_on_cycle n ups))
    | () ->
      (* longest declared chain below each id, pushed up the declared
         pairs from low to high: an id has strictly more ancestors than
         anything above it, so descending ancestor count is such an
         order *)
      let rank = Array.make n 0 in
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b -> Int.compare (Array.length anc.(b)) (Array.length anc.(a)))
        order;
      Array.iter
        (fun a ->
          List.iter (fun hi -> rank.(hi) <- max rank.(hi) (rank.(a) + 1)) ups.(a))
        order;
      Ok { anc; rank })

let size t = Array.length t.anc

let mem (s : int array) (x : int) =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let y = s.(mid) in
    y = x || if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length s)

let lt t a b = mem t.anc.(a) b
let leq t a b = a = b || lt t a b
let incomparable t a b = a <> b && (not (lt t a b)) && not (lt t b a)
let rank t a = t.rank.(a)

let above t a =
  let rec insert = function
    | b :: rest when b < a -> b :: insert rest
    | rest -> a :: rest
  in
  insert (Array.to_list t.anc.(a))

let below t a =
  List.filter (fun b -> leq t b a) (List.init (size t) Fun.id)

let minimal t =
  (* [has_below.(b)] iff some id sits strictly below [b] *)
  let has_below = Array.make (size t) false in
  Array.iter (Array.iter (fun b -> has_below.(b) <- true)) t.anc;
  List.filter (fun a -> not has_below.(a)) (List.init (size t) Fun.id)

let maximal t =
  List.filter (fun a -> Array.length t.anc.(a) = 0) (List.init (size t) Fun.id)

let covers t =
  let n = size t in
  (* [covered.(b) = a]: [b] is above some ancestor of [a], so not a cover *)
  let covered = Array.make n (-1) in
  List.concat
    (List.init n (fun a ->
         Array.iter
           (fun c -> Array.iter (fun b -> covered.(b) <- a) t.anc.(c))
           t.anc.(a);
         List.filter_map
           (fun b -> if covered.(b) = a then None else Some (a, b))
           (Array.to_list t.anc.(a))))
