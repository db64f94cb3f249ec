open Logic

(* Definition 3 on an encoded assignment, passing each violation to
   [bad]: [`A (a, i)] when the defined literal on atom [a] is
   contradicted by rule [i], [`B (a, i)] when [a] is undefined but rule
   [i] about it may fire.  [extra] literals (atoms outside the ground
   program) satisfy both conditions vacuously. *)
let iter_violations (g : Gop.t) v bad =
  (* (a): defined literals must not be contradicted, except through
     blocking or overruling by an applied rule. *)
  Array.iteri
    (fun a _atom ->
      if Gop.Values.defined v a then begin
        let pol = Gop.Values.value v a = Interp.True in
        List.iter
          (fun i ->
            if
              (* H(r_i) = -A *)
              g.Gop.rules.(i).head_pol = not pol
              && (not (Status.blocked g v i))
              && not
                   (List.exists
                      (fun j -> Status.applied g v j)
                      g.Gop.overrulers.(i))
            then bad (`A (a, i)))
          g.Gop.by_head.(a)
      end
      else
        (* (b): undefined atoms must have every applicable rule about them
           overruled or defeated. *)
        List.iter
          (fun i ->
            if
              Status.applicable g v i
              && (not (Status.overruled g v i))
              && not (Status.defeated g v i)
            then bad (`B (a, i)))
          g.Gop.by_head.(a))
    g.Gop.atoms

let violations g interp =
  let v, _extra = Gop.Values.of_interp g interp in
  let name i = Program.component_name g.Gop.program g.Gop.rules.(i).comp in
  let bad = ref [] in
  iter_violations g v (function
    | `A (a, i) ->
      bad :=
        Format.asprintf
          "condition (a): %a is in M but rule %a [%s] is neither blocked \
           nor overruled by an applied rule"
          Literal.pp
          (Literal.make (Gop.Values.value v a = Interp.True) g.Gop.atoms.(a))
          Rule.pp (Gop.rule_src g i) (name i)
        :: !bad
    | `B (a, i) ->
      bad :=
        Format.asprintf
          "condition (b): atom %a is undefined but rule %a [%s] is \
           applicable and neither overruled nor defeated"
          Atom.pp g.Gop.atoms.(a) Rule.pp (Gop.rule_src g i) (name i)
        :: !bad);
  List.rev !bad

exception Violation

(* The search leaves' check: stop at the first violation and format
   nothing — the enumerations reject most of their leaves, and only
   [violations] needs the messages. *)
let is_model_v g v =
  match iter_violations g v (fun _ -> raise_notrace Violation) with
  | () -> true
  | exception Violation -> false

let is_model g interp = is_model_v g (fst (Gop.Values.of_interp g interp))

(* Definition 8 says "all applied rules"; that makes Theorem 1(a) false
   when an applied rule is itself overruled or defeated (its head would
   count as grounded even though Definition 6 discounts suppressed rules
   — see the deviations test suite for a two-component counterexample).
   The default is therefore the corrected enabled version: applied and
   not suppressed, mirroring conditions (b)/(c) of Definition 6.  The
   paper's literal reading stays available for comparison. *)
let enabled_version ?(semantics = `Corrected) (g : Gop.t) v =
  List.filter
    (fun i ->
      Status.applied g v i
      &&
      match semantics with
      | `Literal -> true
      | `Corrected ->
        (not (Status.overruled g v i)) && not (Status.defeated g v i))
    (List.init (Gop.n_rules g) Fun.id)

let enabled_fixpoint ?semantics (g : Gop.t) v =
  (* Positive fixpoint over the enabled rules, literals as atomic units.
     No contradiction can arise (Lemma 2): every applied head is in M,
     which is consistent. *)
  let enabled = enabled_version ?semantics g v in
  let out = Gop.Values.create g in
  let missing =
    List.map (fun i -> (i, ref (Array.length g.Gop.rules.(i).body))) enabled
  in
  let watch_pos = Array.make (Gop.n_atoms g) [] in
  let watch_neg = Array.make (Gop.n_atoms g) [] in
  List.iter
    (fun (i, cell) ->
      Array.iter
        (fun (a, pol) ->
          if pol then watch_pos.(a) <- (i, cell) :: watch_pos.(a)
          else watch_neg.(a) <- (i, cell) :: watch_neg.(a))
        g.Gop.rules.(i).body)
    missing;
  let queue = Queue.create () in
  let derive a pol =
    if not (Gop.Values.defined out a) then begin
      Gop.Values.set out a pol;
      Queue.add (a, pol) queue
    end
  in
  List.iter
    (fun (i, cell) ->
      if !cell = 0 then derive g.Gop.rules.(i).head g.Gop.rules.(i).head_pol)
    missing;
  while not (Queue.is_empty queue) do
    let a, pol = Queue.pop queue in
    let watchers = if pol then watch_pos.(a) else watch_neg.(a) in
    List.iter
      (fun (i, cell) ->
        decr cell;
        if !cell = 0 then derive g.Gop.rules.(i).head g.Gop.rules.(i).head_pol)
      watchers
  done;
  out

let is_assumption_free_v ?semantics g v =
  is_model_v g v
  && Gop.Values.equal (enabled_fixpoint ?semantics g v) v

let is_assumption_free ?semantics g interp =
  let v, extra = Gop.Values.of_interp g interp in
  extra = [] && is_assumption_free_v ?semantics g v

(* Definition 6, as a greatest fixpoint over subsets of M.  F(X) keeps the
   literals A of X such that every rule with head A is non-applicable,
   overruled, defeated, or has a body literal in X; assumption sets are
   exactly the non-empty X with X <= F(X), and the gfp is their union. *)
let largest_assumption_set_v (g : Gop.t) v =
  let in_x = Array.make (Gop.n_atoms g) false in
  (* Start from all of M (as literal markers per atom; M has at most one
     literal per atom). *)
  Array.iteri (fun a _ -> in_x.(a) <- Gop.Values.defined v a) g.Gop.atoms;
  let lit_in_x (a, pol) =
    in_x.(a) && Gop.Values.value v a = (if pol then Interp.True else Interp.False)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun a _ ->
        if in_x.(a) then begin
          let pol = Gop.Values.value v a = Interp.True in
          let keeps =
            List.for_all
              (fun i ->
                let r = g.Gop.rules.(i) in
                r.head_pol <> pol
                || (not (Status.applicable g v i))
                || Status.overruled g v i || Status.defeated g v i
                || Array.exists lit_in_x r.body)
              g.Gop.by_head.(a)
          in
          if not keeps then begin
            in_x.(a) <- false;
            changed := true
          end
        end)
      g.Gop.atoms
  done;
  let acc = ref [] in
  Array.iteri
    (fun a _ ->
      if in_x.(a) then
        acc :=
          Literal.make (Gop.Values.value v a = Interp.True) g.Gop.atoms.(a)
          :: !acc)
    g.Gop.atoms;
  List.rev !acc

let largest_assumption_set g interp =
  let v, extra = Gop.Values.of_interp g interp in
  (* Literals over atoms unknown to the program vacuously satisfy
     Definition 6 (no rules at all), so they always belong. *)
  largest_assumption_set_v g v @ extra

let is_assumption_set (g : Gop.t) interp candidate =
  if candidate = [] then false
  else begin
    let v, extra = Gop.Values.of_interp g interp in
    let in_interp l =
      List.exists (Literal.equal l) extra
      ||
      match Gop.atom_id g l.Literal.atom with
      | Some a ->
        Gop.Values.value v a
        = (if l.Literal.pol then Interp.True else Interp.False)
      | None -> false
    in
    List.for_all in_interp candidate
    && List.for_all
         (fun (l : Literal.t) ->
           match Gop.atom_id g l.atom with
           | None -> true (* no rules: conditions hold vacuously *)
           | Some a ->
             List.for_all
               (fun i ->
                 let r = g.Gop.rules.(i) in
                 r.head_pol <> l.pol
                 || (not (Status.applicable g v i))
                 || Status.overruled g v i || Status.defeated g v i
                 || Array.exists
                      (fun (b, pol) ->
                        List.exists
                          (fun (x : Literal.t) ->
                            x.pol = pol && Atom.equal x.atom g.Gop.atoms.(b))
                          candidate)
                      r.body)
               g.Gop.by_head.(a))
         candidate
  end
