open Logic

type grule = {
  head : int;
  head_pol : bool;
  body : (int * bool) array;
  comp : Program.component_id;
  name : string option;  (* source rule name, kept on ground instances *)
}

type t = {
  program : Program.t;
  comp : Program.component_id;
  atoms : Atom.t array;
  ids : int Atom.Tbl.t;
  rules : grule array;
  by_head : int list array;
  by_body_pos : int list array;
  by_body_neg : int list array;
  overrulers : int list array;
  defeaters : int list array;
  suppresses : int list array;
  universe : Term.t list;
  active_base : Atom.t list;
  full_base : Atom.t list Lazy.t;
}

let dedup_body body =
  Literal.Set.elements (Literal.Set.of_list body)

let of_view ?(depth = 0) ?(extra_constants = []) program comp tagged =
  let untagged = List.map snd tagged in
  let sg = Herbrand.signature_of_rules untagged in
  let sg =
    { sg with
      Herbrand.constants =
        Term.Set.elements
          (Term.Set.union
             (Term.Set.of_list sg.Herbrand.constants)
             (Term.Set.of_list extra_constants))
    }
  in
  let universe = Herbrand.universe ~depth sg in
  let full_base =
    lazy (Herbrand.base ~depth ~skip:Ground.Builtin.is_builtin sg)
  in
  let ids = Atom.Tbl.create 256 in
  let atoms = ref [] in
  let n = ref 0 in
  let intern a =
    match Atom.Tbl.find_opt ids a with
    | Some i -> i
    | None ->
      let i = !n in
      Atom.Tbl.add ids a i;
      atoms := a :: !atoms;
      incr n;
      i
  in
  let rules =
    List.map
      (fun (c, (r : Rule.t)) ->
        if not (Rule.is_ground r) then
          invalid_arg "Gop.of_view: non-ground rule in view";
        { head = intern (Rule.head r).Literal.atom;
          head_pol = Literal.is_positive (Rule.head r);
          body =
            Array.of_list
              (List.map
                 (fun (l : Literal.t) -> (intern l.atom, l.pol))
                 (dedup_body (Rule.body r)));
          comp = c;
          name = Rule.name r
        })
      tagged
    |> Array.of_list
  in
  let atoms = Array.of_list (List.rev !atoms) in
  let na = Array.length atoms in
  let nr = Array.length rules in
  let by_head = Array.make na [] in
  let by_body_pos = Array.make na [] in
  let by_body_neg = Array.make na [] in
  Array.iteri
    (fun i r ->
      by_head.(r.head) <- i :: by_head.(r.head);
      Array.iter
        (fun (a, pol) ->
          if pol then by_body_pos.(a) <- i :: by_body_pos.(a)
          else by_body_neg.(a) <- i :: by_body_neg.(a))
        r.body)
    rules;
  let overrulers = Array.make nr [] in
  let defeaters = Array.make nr [] in
  let suppresses = Array.make nr [] in
  let poset = Program.poset program in
  for a = 0 to na - 1 do
    let here = by_head.(a) in
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            if rules.(i).head_pol <> rules.(j).head_pol then begin
              (* j contradicts i.  Definition 2: j overrules i when
                 C(j) < C(i); j defeats i when C(j) <> C(i) or
                 C(j) = C(i). *)
              let ci = rules.(i).comp and cj = rules.(j).comp in
              if Poset.lt poset cj ci then begin
                overrulers.(i) <- j :: overrulers.(i);
                suppresses.(j) <- i :: suppresses.(j)
              end
              else if ci = cj || Poset.incomparable poset ci cj then begin
                defeaters.(i) <- j :: defeaters.(i);
                suppresses.(j) <- i :: suppresses.(j)
              end
            end)
          here)
      here
  done;
  let active =
    Array.to_list atoms |> Atom.Set.of_list |> Atom.Set.elements
  in
  { program;
    comp;
    atoms;
    ids;
    rules;
    by_head;
    by_body_pos;
    by_body_neg;
    overrulers;
    defeaters;
    suppresses;
    universe;
    active_base = active;
    full_base
  }

let schema_universe ?(depth = 0) ?(extra_constants = []) program comp =
  let untagged = List.map snd (Program.view program comp) in
  let sg = Herbrand.signature_of_rules untagged in
  let sg =
    { sg with
      Herbrand.constants =
        Term.Set.elements
          (Term.Set.union
             (Term.Set.of_list sg.Herbrand.constants)
             (Term.Set.of_list extra_constants))
    }
  in
  Herbrand.universe ~depth sg

let ground_groups ?(budget = Budget.unlimited) ?max_instances
    ?(grounder = `Naive) ?(depth = 0) ?(extra_constants = []) program comp =
  let view = Program.view program comp in
  let untagged = List.map snd view in
  let universe = schema_universe ~depth ~extra_constants program comp in
  (* Count instances per source rule against the cap so the overflow
     diagnostic names the rule being instantiated. *)
  let count = ref 0 in
  let guard (r : Rule.t) insts =
    (match max_instances with
    | None -> ()
    | Some cap ->
      count := !count + List.length insts;
      if !count > cap then
        Diag.fail
          (Diag.Grounding_overflow
             { rule = Rule.to_string r;
               produced = !count;
               cap;
               universe = List.length universe
             }));
    insts
  in
  let raw =
    match grounder with
    | `Naive ->
      List.map
        (fun (c, r) ->
          (c, r, guard r (Ground.Grounder.ground_rule_instances ~budget ~universe r)))
        view
    | `Relevant ->
      let res =
        Ground.Grounder.relevant ~budget ~depth ~extra_constants untagged
      in
      let support = List.map Rule.head res.Ground.Grounder.rules in
      List.map
        (fun (c, r) ->
          ( c,
            r,
            guard r
              (Ground.Grounder.instances_supported_by ~budget ~universe
                 ~support r) ))
        view
  in
  (* Deduplicate instances per component (a rule occurring in two distinct
     components keeps distinct instances, as the paper requires of the
     function C).  The table is shared across the whole view, in view
     order, so flattening the groups reproduces the deduplicated tagged
     list exactly — incremental re-grounding (lib/inc) relies on that to
     rebuild groundings bit-identical to a from-scratch [ground]. *)
  let seen = Hashtbl.create 256 in
  List.map
    (fun (c, src, insts) ->
      let insts =
        List.filter
          (fun r ->
            let key = (c, Rule.to_string r) in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          insts
      in
      (c, src, insts))
    raw

let flatten_groups groups =
  List.concat_map
    (fun (c, _, insts) -> List.map (fun inst -> (c, inst)) insts)
    groups

let ground ?budget ?max_instances ?grounder ?(depth = 0) ?(extra_constants = [])
    program comp =
  let groups =
    ground_groups ?budget ?max_instances ?grounder ~depth ~extra_constants
      program comp
  in
  of_view ~depth ~extra_constants program comp (flatten_groups groups)

let n_atoms t = Array.length t.atoms
let n_rules t = Array.length t.rules
let atom_id t a = Atom.Tbl.find_opt t.ids a

let rule_src t i =
  let r = t.rules.(i) in
  let src =
    Rule.make
      (Literal.make r.head_pol t.atoms.(r.head))
      (Array.to_list
         (Array.map (fun (a, pol) -> Literal.make pol t.atoms.(a)) r.body))
  in
  match r.name with Some n -> Rule.with_name n src | None -> src

type stats = {
  atoms : int;
  rules : int;
  body_literals : int;
  overruling_edges : int;
  defeating_edges : int;
}

let stats t =
  { atoms = n_atoms t;
    rules = n_rules t;
    body_literals =
      Array.fold_left (fun n r -> n + Array.length r.body) 0 t.rules;
    overruling_edges =
      Array.fold_left (fun n l -> n + List.length l) 0 t.overrulers;
    defeating_edges =
      Array.fold_left (fun n l -> n + List.length l) 0 t.defeaters
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d atoms, %d rules, %d body literals, %d overruling edges, %d \
     defeating edges"
    s.atoms s.rules s.body_literals s.overruling_edges s.defeating_edges

let find_rule t comp (r : Rule.t) =
  let target_head = Rule.head r in
  let target_body = Literal.Set.of_list (Rule.body r) in
  let rec go i =
    if i >= n_rules t then None
    else
      let g = t.rules.(i) in
      let src = rule_src t i in
      if
        g.comp = comp
        && Literal.equal (Rule.head src) target_head
        && Literal.Set.equal (Rule.body_set src) target_body
      then Some i
      else go (i + 1)
  in
  go 0

module Values = struct
  type gop = t
  type t = int array (* 0 = undefined, 1 = true, 2 = false *)

  let create (g : gop) = Array.make (Array.length g.atoms) 0
  let copy = Array.copy

  let value (v : t) i =
    match v.(i) with
    | 0 -> Interp.Undefined
    | 1 -> Interp.True
    | _ -> Interp.False

  let set (v : t) i b =
    let code = if b then 1 else 2 in
    if v.(i) <> 0 && v.(i) <> code then
      invalid_arg "Gop.Values.set: inconsistent assignment"
    else v.(i) <- code

  let unset (v : t) i = v.(i) <- 0
  let defined (v : t) i = v.(i) <> 0
  let equal (a : t) (b : t) = a = b

  let of_codes (a : int array) : t = a

  (* [m] lies strictly below [m'] iff it defines fewer atoms and [m']
     agrees with it on every atom it defines.  Atoms that every candidate
     defines with the same value cannot separate two candidates, so each
     one is compared on its [support] — the rest of its defined atoms —
     only: for the enumerations' leaves that is just the branch atoms,
     not the shared least fixpoint. *)
  let maximal (ms : t list) =
    match ms with
    | [] | [ _ ] -> ms
    | m0 :: rest ->
      let common = Array.copy m0 in
      List.iter
        (fun m ->
          Array.iteri (fun i c -> if c <> m.(i) then common.(i) <- 0) common)
        rest;
      let support m =
        let acc = ref [] in
        for i = Array.length m - 1 downto 0 do
          if m.(i) <> 0 && common.(i) = 0 then acc := i :: !acc
        done;
        Array.of_list !acc
      in
      let cands = List.map (fun m -> (m, support m)) ms in
      let below (m, s) (m', s') =
        Array.length s < Array.length s'
        && Array.for_all (fun i -> m'.(i) = m.(i)) s
      in
      List.filter_map
        (fun ((m, _) as c) ->
          if List.exists (below c) cands then None else Some m)
        cands

  let of_interp (g : gop) interp =
    let v = create g in
    let extra = ref [] in
    Interp.iter
      (fun a b ->
        match atom_id g a with
        | Some i -> set v i b
        | None -> extra := Literal.make b a :: !extra)
      interp;
    (v, List.rev !extra)

  let to_interp (g : gop) (v : t) =
    let acc = ref Interp.empty in
    Array.iteri
      (fun i code ->
        if code = 1 then acc := Interp.set !acc g.atoms.(i) true
        else if code = 2 then acc := Interp.set !acc g.atoms.(i) false)
      v;
    !acc
end
